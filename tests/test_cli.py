"""Command-line interface: check, complete, run, report."""

import json

import pytest

from asgdec.cli import main
from asgdec.tasks.sgs import ANBNCN_GRAMMAR


@pytest.fixture()
def grammar_file(tmp_path):
    path = tmp_path / "lang.asg"
    path.write_text(ANBNCN_GRAMMAR)
    return str(path)


def test_check_accept(grammar_file, capsys):
    assert main(["check", grammar_file, "aabbcc"]) == 0
    assert capsys.readouterr().out.strip() == "ACCEPT"


def test_check_reject_with_constraint_detail(grammar_file, capsys):
    assert main(["check", grammar_file, "aabbc"]) == 1
    assert "REJECT" in capsys.readouterr().out


def test_check_reject_bad_letter(grammar_file, capsys):
    assert main(["check", grammar_file, "abz"]) == 1
    out = capsys.readouterr().out
    assert "REJECT" in out and "z" in out


def test_check_missing_grammar(capsys):
    assert main(["check", "/nonexistent.asg", "x"]) == 2
    assert "error" in capsys.readouterr().err


def test_complete_lists_terminals(grammar_file, capsys):
    assert main(["complete", grammar_file, "aab"]) == 0
    lines = capsys.readouterr().out.split()
    assert lines == ["b"]  # second b is the only viable continuation


def test_complete_includes_eos_on_complete_word(grammar_file, capsys):
    assert main(["complete", grammar_file, "abc"]) == 0
    assert capsys.readouterr().out.split() == ["<EOS>"]


def test_complete_dead_prefix(grammar_file, capsys):
    assert main(["complete", grammar_file, "ba"]) == 1
    assert "dead end" in capsys.readouterr().err


def test_run_writes_records_and_summary(tmp_path, capsys):
    out = tmp_path / "res.jsonl"
    code = main(
        [
            "run", "--task", "anbncn", "--algo", "mcts", "--count", "4",
            "--seed", "1", "--budget", "30", "--max-tokens", "24",
            "--output", str(out), "--workers", "1",
        ]
    )
    assert code == 0
    summary = capsys.readouterr().out
    assert "n=4" in summary and "V_SEM" in summary
    records = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(records) == 4
    for r in records:
        assert r["outcome"] == "completed" and r["rho"] == 0
        assert r["v_sem"] and r["v_csg"] and r["v_cfg"]
        assert r["seed"] == 1 * 100003 + records.index(r)


def test_run_base_constraint_none(tmp_path, capsys):
    out = tmp_path / "res.jsonl"
    code = main(
        [
            "run", "--task", "json", "--algo", "base", "--constraint", "none",
            "--count", "3", "--max-tokens", "20", "--output", str(out),
            "--workers", "1",
        ]
    )
    assert code == 0
    records = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(records) == 3


def test_run_rejects_unknown_task(capsys):
    assert main(["run", "--task", "nope", "--workers", "1"]) == 2
    assert "unknown task" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--budget", "--max-tokens", "--count", "--workers"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_run_rejects_a_budget_or_token_limit_below_one(flag, value, capsys):
    assert main(["run", "--task", "anbncn", "--count", "1", "--workers", "1", flag, value]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}")


def test_run_rejects_search_on_rewardless_task(capsys):
    assert main(["run", "--task", "json", "--algo", "mcts", "--workers", "1"]) == 2
    assert "reward" in capsys.readouterr().err


def test_report_groups_by_configuration(tmp_path, capsys):
    out = tmp_path / "res.jsonl"
    main(
        [
            "run", "--task", "anbncn", "--count", "2", "--budget", "4",
            "--max-tokens", "24", "--output", str(out), "--workers", "1",
        ]
    )
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    text = capsys.readouterr().out
    assert "anbncn" in text and "n=2" in text


@pytest.mark.parametrize(
    "lines, where",
    [
        (None, ": cannot read:"),
        (['{"algo": "base"', ""], ":1: not a result record"),
        (["", '{"algo": "base", "constraint": "sem"}'], ":2: not a result record: no field 'config'"),
    ],
    ids=["missing file", "not json", "no config"],
)
def test_report_rejects_bad_input_as_a_usage_error(tmp_path, capsys, lines, where):
    path = tmp_path / "res.jsonl"
    if lines is not None:
        path.write_text("\n".join(lines) + "\n")
    assert main(["report", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}{where}"), err


def test_run_records_engine_error_and_finishes_batch(tmp_path, monkeypatch):
    from asgdec import decoding
    from asgdec.errors import GroundingOverflow

    real = decoding.generate

    def flaky(grammar, token_map, policy, prompt_ids, cfg, **kwargs):
        if cfg.seed == 1:  # instance index 1 of a seed-0 batch
            raise GroundingOverflow("injected")
        return real(grammar, token_map, policy, prompt_ids, cfg, **kwargs)

    monkeypatch.setattr(decoding, "generate", flaky)
    out = tmp_path / "res.jsonl"
    code = main(
        [
            "run", "--task", "anbncn", "--count", "3", "--max-tokens", "24",
            "--output", str(out), "--workers", "1",
        ]
    )
    assert code == 0
    records = [json.loads(l) for l in out.read_text().splitlines()]
    assert [r["outcome"] == "error" for r in records] == [False, True, False]
    assert records[1]["output"].startswith("GroundingOverflow")
    assert not records[1]["v_cfg"]


@pytest.mark.parametrize("algo", ["mcts", "bon"])
def test_run_records_constraint_time_of_search_and_best_of_n(tmp_path, algo):
    out = tmp_path / "res.jsonl"
    main(
        [
            "run", "--task", "anbncn", "--algo", algo, "--count", "2",
            "--budget", "4", "--max-tokens", "24", "--output", str(out),
            "--workers", "1",
        ]
    )
    records = [json.loads(l) for l in out.read_text().splitlines()]
    assert records and all(r["t_constraint_ms"] > 0 for r in records)


def test_best_of_n_sums_constraint_time_over_samples():
    from asgdec import TerminalTokenizer, UniformPolicy, build_map, parse_grammar
    from asgdec.decoding import DecodeConfig, best_of_n

    g = parse_grammar(ANBNCN_GRAMMAR)
    tmap = build_map(g.terminals, TerminalTokenizer(g.terminals))
    cfg = DecodeConfig(mode="sample", n=3, max_tokens=12)
    best, results = best_of_n(
        g, tmap, UniformPolicy(tmap.vocab_size), (), cfg, lambda r: 0.0
    )
    assert best.constraint_seconds == sum(r.constraint_seconds for r in results) > 0


def test_run_ngram_on_graph3color_fits_on_spellable_words(tmp_path):
    # graph3color instances differ in node terminals, so some reference
    # words cannot be spelt by another instance's tokenizer
    out = tmp_path / "res.jsonl"
    main(
        [
            "run", "--task", "graph3color", "--policy", "ngram", "--count", "4",
            "--output", str(out), "--workers", "1",
        ]
    )
    records = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(records) == 4
    assert [r["outcome"] for r in records if r["outcome"] == "error"] == []
