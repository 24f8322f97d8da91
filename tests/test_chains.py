import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cnfaug import (
    AugmentationSpec,
    ChainParseError,
    Formula,
    LaaKind,
    LpaKind,
    apply_chain,
    format_chain,
    is_label_preserving,
    parse_chain,
    solve_brute,
    subsumed_clause_eliminate,
)
from conftest import formula_of, non_canonical, random_formula


RUNNING = formula_of(4, [1], [2, 3], [1, -3, 4], [-1, 2, 3, -4])


def test_parse_full_form():
    chain = parse_chain("CR:0.2:42,SC:0:0")
    assert chain == (
        AugmentationSpec(LpaKind.CR, 0.2, 42),
        AugmentationSpec(LpaKind.SC, 0.0, 0),
    )


def test_parse_defaults_and_case():
    chain = parse_chain("cr:0.15,sc")
    assert chain == (
        AugmentationSpec(LpaKind.CR, 0.15, 0),
        AugmentationSpec(LpaKind.SC, 0.0, 0),
    )


def test_parse_laa_kinds():
    chain = parse_chain("DC:0.3:7,SG:0.5:9")
    assert chain[0].kind is LaaKind.DC
    assert chain[1].kind is LaaKind.SG


def test_empty_chain():
    assert parse_chain("") == ()
    assert parse_chain("   ") == ()


SPECS = st.builds(
    AugmentationSpec,
    st.sampled_from([*LpaKind, *LaaKind]),
    st.floats(0.0, 1.0),
    st.integers(0, 2**64 - 1),
)


@given(st.lists(SPECS, max_size=4).map(tuple))
@example(parse_chain("VE:0.1:3,CR:0.25:11,SC"))
@example((AugmentationSpec(LpaKind.CR, 1e-05, 1), AugmentationSpec(LaaKind.DV, 5e-324, 2**64 - 1)))
@example((AugmentationSpec(LpaKind.UP, -0.0, 0),))
def test_format_round_trip(chain):
    # rates are written positionally and unsigned: the grammar refuses 1e-05 and -0.0
    assert parse_chain(format_chain(chain)) == chain


def test_parse_errors():
    with pytest.raises(ChainParseError):
        parse_chain("XX:0.1:2")
    with pytest.raises(ChainParseError):
        parse_chain("CR:high")
    with pytest.raises(ChainParseError):
        parse_chain("CR:0.1:2:9")
    with pytest.raises(ChainParseError):
        parse_chain("CR:1.5")
    # one spelling per number: ASCII digits with no leading zero, a rate
    # with an optional .digits fraction, and no sign, exponent or space
    for text in ("CR:0.2_5:4_2", "CR:0.25:4_2", "CR:\u0660.\u0665:\u0664\u0662",
                 "CR:0.2:+3", "CR:0.2: 3", "CR:0.2:\u0663",
                 "CR: 0.25:42", "CR:2.5e-1:42", "CR:0.25:042", "CR :0.25:42", "CR:.5:1", "CR:00.5:1"):
        with pytest.raises(ChainParseError, match="malformed chain step"):
            parse_chain(text)


def test_spec_validation():
    with pytest.raises(ValueError):
        AugmentationSpec(LpaKind.CR, -0.1, 0)
    with pytest.raises(ValueError):
        AugmentationSpec("CR", 0.1, 0)
    with pytest.raises(ValueError):
        AugmentationSpec(LpaKind.CR, 0.1, -1)


def test_label_preserving_predicate():
    assert is_label_preserving(parse_chain("UP:0.1,AU:0.2:3,SC"))
    assert not is_label_preserving(parse_chain("CR:0.1,DC:0.2"))
    assert is_label_preserving(())


def test_empty_chain_is_identity():
    assert apply_chain(RUNNING, ()) == RUNNING


def test_resolvents_then_subsumption_prunes_supersets(sr_corpus):
    chain = parse_chain("CR:0.2:1,SC")
    f = sr_corpus[0].formula
    out = apply_chain(f, chain)
    # composition law: chain application equals composing the operations
    from cnfaug import clause_resolution

    assert out == subsumed_clause_eliminate(clause_resolution(f, 0.2, 1))
    sets = [frozenset(c) for c in out.clauses]
    assert not any(i != j and a < b for i, a in enumerate(sets) for j, b in enumerate(sets))
    assert solve_brute(out) is sr_corpus[0].label


def test_order_matters(sr_corpus):
    f = sr_corpus[0].formula
    ab = apply_chain(f, parse_chain("CR:0.2:1,SC"))
    ba = apply_chain(f, parse_chain("SC,CR:0.2:1"))
    assert ab != ba


def test_all_lpa_chains_preserve_labels(sr_corpus):
    chains = [
        parse_chain("VE:0.1:5,SC"),
        parse_chain("CR:0.3:9,SC"),
        parse_chain("AU:0.2:3,CR:0.2:4,SC"),
        parse_chain("UP:0.5:1,PL:0.5:2,VE:0.2:3"),
    ]
    for inst in sr_corpus[:100]:
        for chain in chains:
            assert solve_brute(apply_chain(inst.formula, chain)) is inst.label


def test_chain_is_deterministic(sr_corpus):
    chain = parse_chain("AU:0.3:8,CR:0.2:5,SC,VE:0.1:2")
    f = sr_corpus[2].formula
    assert apply_chain(f, chain) == apply_chain(f, chain)


# every augmentation kind builds its output with ``Formula._canonical``, which
# skips the constructor's canonicalization and range check
TRUSTED_KINDS = [*LpaKind, *LaaKind]


@pytest.mark.parametrize("kind", TRUSTED_KINDS, ids=lambda kind: kind.value)
def test_unchecked_outputs_are_canonical(rng, kind):
    for idx in range(120):
        f = random_formula(rng, max_vars=10)
        for g in (f, non_canonical(f)):
            for rate in (0.3, 1.0):
                out = AugmentationSpec(kind, rate, idx).apply(g)
                assert Formula(out.num_vars, out.clauses).clauses == out.clauses, (g, rate, idx)
                assert all(type(lit) is int for c in out.clauses for lit in c), (g, rate, idx)
