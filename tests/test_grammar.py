"""Grammar file parsing, projections, and the pretty printer."""

import pytest

from asgdec.earley import accepts
from asgdec.errors import AsgReferenceError, AsgSyntaxError, StratificationError
from asgdec.grammar import (
    NONTERMINAL,
    TERMINAL,
    csg_projection,
    format_grammar,
    grammars_equal,
    load_grammar,
    parse_grammar,
    strip_annotations,
)
from asgdec.logic import parse_rules

TOY = """\
% equal a/b counts, one letter each
start -> pair { ok :- l@1, r@1. :- not ok. }
pair -> "a" "b" { l. r. }
#background { limit(3). }
"""


def test_parse_structure():
    g = parse_grammar(TOY)
    assert g.start == "start"
    assert g.terminals == {"a", "b"}
    assert g.nonterminals == {"start", "pair"}
    p = g.productions[1]
    assert [s.kind for s in p.body] == [TERMINAL, TERMINAL]
    assert ("limit", (3,)) in {
        (r.head.pred, r.head.args) for r in g.background.rules
    }


def test_alternatives_become_separate_productions():
    g = parse_grammar('s -> s "a" {} | "a" {}')
    assert len(g.productions) == 2
    assert [len(p.body) for p in g.productions] == [2, 1]


def test_annotation_child_index_checked():
    with pytest.raises(AsgReferenceError, match="@3"):
        parse_grammar('s -> "a" "b" { x :- y@3. }')


def test_undefined_nonterminal_rejected():
    with pytest.raises(AsgReferenceError, match="ghost"):
        parse_grammar('s -> ghost "a" {}')


def test_background_may_not_use_child_refs():
    with pytest.raises(AsgReferenceError):
        parse_grammar('s -> "a" {}\n#background { p :- q@1. }')


def test_duplicate_background_rejected():
    with pytest.raises(AsgSyntaxError, match="duplicate"):
        parse_grammar('s -> "a" {}\n#background {}\n#background {}')


def test_empty_terminal_rejected():
    with pytest.raises(AsgSyntaxError):
        parse_grammar('s -> "" {}')


def test_unstratified_annotation_rejected():
    with pytest.raises(StratificationError):
        parse_grammar('s -> "a" { p :- not q. q :- not p. }')


@pytest.mark.parametrize(
    "source, word",
    [
        # each fragment is stratified; p and q are local to each fragment
        ('s -> t "b" { p :- not q. }\nt -> "a" { q :- p. }', ("a", "b")),
        ('s -> "a" { p :- q. :- not p. }\n#background { q :- not p. }', ("a",)),
    ],
)
def test_fragments_are_stratified_one_at_a_time(source, word):
    assert accepts(parse_grammar(source), word)


def test_comments_and_escapes():
    g = parse_grammar('s -> "\\"" {} % quote terminal\n')
    assert g.terminals == {'"'}


def test_format_parse_round_trip():
    for text in (TOY, 's -> "a" { p("x\\"y\\\\z"). }\n#background { q("\\""). }'):
        g = parse_grammar(text)
        assert grammars_equal(g, parse_grammar(format_grammar(g)))


def test_strip_annotations_removes_all_logic():
    g = strip_annotations(parse_grammar(TOY))
    assert all(not p.annotation.rules for p in g.productions)
    assert not g.background.rules


def test_csg_projection_keeps_annotations_drops_background():
    g = csg_projection(parse_grammar(TOY))
    assert any(p.annotation.rules for p in g.productions)
    assert not g.background.rules


@pytest.mark.parametrize(
    "name", ["fig2", "sudoku4", "blocksworld", "json"]
)
def test_packaged_grammars_load(name):
    import asgdec

    path = f"{list(asgdec.__path__)[0]}/grammars/{name}.asg"
    g = load_grammar(path)
    assert g.productions
    assert grammars_equal(g, parse_grammar(format_grammar(g)))


# (parser, source, error class, line, col): every malformed source is
# reported where it goes wrong, inside an annotation block as outside it.
MALFORMED = [
    (parse_grammar, 's -> "a" { p :- q. ', AsgSyntaxError, 1, 10),  # unterminated block: its '{'
    (parse_grammar, 's -> "a" { p :- q', AsgSyntaxError, 1, 10),
    (parse_grammar, 's -> "a" { p :- "q }', AsgSyntaxError, 1, 17),  # unterminated string: its quote
    (parse_grammar, 's -> "a" { p :- q }', AsgSyntaxError, 1, 19),  # missing '.': the '}'
    (parse_grammar, 's -> "a" {\n  p :- q.\n  r :- \n}', AsgSyntaxError, 4, 1),
    (parse_grammar, 's -> "a" { p :- q "." }', AsgSyntaxError, 1, 19),  # a string is no '.'
    (parse_grammar, 's -> "a" { p :- q. } $', AsgSyntaxError, 1, 22),
    (parse_grammar, 's -> "a" { p :- { q. } }', AsgSyntaxError, 1, 17),
    (parse_grammar, 's -> "a', AsgSyntaxError, 1, 6),
    (parse_grammar, 's -> "" {}', AsgSyntaxError, 1, 6),
    (parse_grammar, "#background", AsgSyntaxError, 1, 12),
    (parse_grammar, 's -> "a" {}\n#background {}\n#background {}', AsgSyntaxError, 3, 1),
    (parse_grammar, 's "a"', AsgSyntaxError, 1, 3),
    (parse_grammar, '3 -> "a"', AsgSyntaxError, 1, 1),
    (parse_grammar, 's -> "a" {} t', AsgSyntaxError, 1, 14),
    (parse_grammar, 's ->\n "a" { p(\u00b2). }', AsgSyntaxError, 2, 10),
    (parse_grammar, 's -> "a" { p :- q@x. }', AsgSyntaxError, 1, 19),
    (parse_grammar, "% a comment only\n", AsgSyntaxError, 1, 1),
    (parse_rules, 'p(X) :- q(X) "," r(X).', AsgSyntaxError, 1, 14),
    (parse_rules, 'p :- q "."', AsgSyntaxError, 1, 8),
    (parse_rules, 'p :- X "<" 3.', AsgSyntaxError, 1, 8),
    (parse_rules, "p(\u00b2).", AsgSyntaxError, 1, 3),  # isdigit(), but no integer
    (parse_rules, "p(\u0663).", AsgSyntaxError, 1, 3),  # an Arabic-Indic three
    (parse_rules, "p(1)", AsgSyntaxError, 1, 5),
    (parse_rules, "p :- q,\n", AsgSyntaxError, 2, 1),
    (parse_rules, "p. }", AsgSyntaxError, 1, 4),
    (parse_rules, ":- p(X.", AsgSyntaxError, 1, 7),
    (parse_rules, "not p :- q.", AsgSyntaxError, 1, 7),
]


@pytest.mark.parametrize(
    "parse, source, error, line, col", MALFORMED, ids=[repr(m[1]) for m in MALFORMED]
)
def test_malformed_source_reported_at_its_position(parse, source, error, line, col):
    with pytest.raises(error) as info:
        parse(source)
    assert type(info.value) is error
    assert (info.value.line, info.value.col) == (line, col)
