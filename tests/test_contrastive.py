import math
import warnings

import numpy as np
import pytest

from cnfaug import apply_chain, cosine_sim, nt_xent, parse_chain, solve_brute


def naive_nt_xent(vectors, temperature):
    """Independent scalar reference: double loop, plain math.exp."""
    rows = [np.asarray(v, dtype=float) for v in vectors]

    def sim(a, b):
        return float(a @ b) / (math.sqrt(float(a @ a)) * math.sqrt(float(b @ b)))

    size = len(rows)
    losses = []
    for i in range(size):
        j = i ^ 1
        numerator = math.exp(sim(rows[i], rows[j]) / temperature)
        denominator = sum(
            math.exp(sim(rows[i], rows[k]) / temperature) for k in range(size) if k != i
        )
        losses.append(-math.log(numerator / denominator))
    return sum(losses) / size


def reference_nt_xent(vectors, temperature):
    """The per-row loop that the masked-row loss replaced, kept as the
    reference it must match bit for bit."""
    x = np.asarray(vectors, dtype=float)
    unit = x / np.linalg.norm(x, axis=1)[:, None]
    logits = (unit @ unit.T) / temperature
    size = x.shape[0]
    total = 0.0
    for i in range(size):
        row = np.delete(logits[i], i)
        peak = row.max()
        log_denominator = peak + np.log(np.exp(row - peak).sum())
        total += log_denominator - logits[i, i ^ 1]
    return float(total / size)


def test_cosine_examples():
    assert cosine_sim([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)
    assert cosine_sim([1.0, 0.0], [0.0, 2.0]) == pytest.approx(0.0)
    assert cosine_sim([1.0, 2.0], [2.0, 1.0]) == pytest.approx(0.8)
    assert cosine_sim([1.0, 2.0], [2.0, 1.0]) == cosine_sim([2.0, 1.0], [1.0, 2.0])


def test_cosine_zero_norm_rejected():
    with pytest.raises(ValueError):
        cosine_sim([0.0, 0.0], [1.0, 0.0])


def test_cosine_length_mismatch_rejected_before_the_norms():
    # an out-of-range norm and a zero norm are not what these calls report
    for a, b in (([1e300, 1e300], [1.0]), ([0.0, 0.0], [1.0, 2.0, 3.0])):
        message = f"^cosine similarity needs vectors of one length, got {len(a)} and {len(b)}$"
        with pytest.raises(ValueError, match=message):
            cosine_sim(a, b)


def test_cosine_non_finite_norm_rejected():
    with pytest.raises(ValueError, match="non-finite norm"):
        cosine_sim([np.nan, 1.0], [1.0, 0.0])
    with pytest.raises(ValueError, match="non-finite norm"):
        cosine_sim([1.0, 0.0], [np.inf, 1.0])


@pytest.mark.parametrize(
    "vectors, temperature, message",
    [
        (np.zeros((3, 2)), 0.5, "batch size must be even and at least 2"),
        (np.zeros((0, 2)), 0.5, "batch size must be even and at least 2"),
        (np.array([1.0, 2.0]), 0.5, "expected a 2-D array of row vectors"),
        (np.zeros((2, 0)), 0.5, "embedding dimension must be at least 1"),
        (np.array([[np.inf, 1.0], [0.0, 1.0]]), 0.5, "embeddings must be finite"),
        (np.array([[np.nan, 1.0], [0.0, 1.0]]), 0.5, "embeddings must be finite"),
        (np.ones((2, 2)), 0.0, "temperature must be positive"),
        (np.ones((2, 2)), -1.0, "temperature must be positive"),
        (np.ones((2, 2)), float("nan"), "temperature must be positive"),
    ],
    ids=["odd", "empty", "1-D", "no-dims", "inf", "nan", "temperature-0", "temperature-neg",
         "temperature-nan"],
)
def test_batch_validation(vectors, temperature, message):
    with pytest.raises(ValueError) as info:
        nt_xent(vectors, temperature=temperature)
    assert str(info.value) == message


@pytest.mark.parametrize("scale", [1e-170, 1e-300, 1e300])
def test_tiny_and_huge_rows_match_double_loop_on_prescaled_rows(rng, scale):
    # a row whose norm underflows or overflows is divided by its largest
    # magnitude; cosine loss does not depend on a row's scale
    for _ in range(50):
        pairs = int(rng.integers(1, 5))
        rows = rng.normal(size=(2 * pairs, int(rng.integers(1, 9))))
        scaled = rows.copy()
        scaled[rng.random(2 * pairs) < 0.5] *= scale
        prescaled = rows / np.abs(rows).max(axis=1, keepdims=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert nt_xent(scaled) == pytest.approx(naive_nt_xent(prescaled, 0.5), abs=1e-12)
            expected = float(prescaled[0] @ prescaled[1]) / float(
                np.linalg.norm(prescaled[0]) * np.linalg.norm(prescaled[1]))
            assert cosine_sim(scaled[0], scaled[1]) == pytest.approx(expected, abs=1e-12)
    batch = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    assert nt_xent(batch * scale) == nt_xent(batch)
    assert cosine_sim([scale, 0.0], [scale, 0.0]) == 1.0


def test_overflowing_norms_scaled():
    # these rows, divided by 1e200, give ln(1 + 2*exp(-2)); their norms
    # overflow, so each is divided by its largest magnitude, not refused
    batch = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    expected = math.log(1.0 + 2.0 * math.exp(-2.0))
    assert nt_xent(batch * 1e200) == pytest.approx(expected, abs=1e-12)
    assert nt_xent(batch * 1e200) == nt_xent(batch)


def test_overflowing_norms_scaled_without_warnings():
    batch = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert nt_xent(batch * 1e200) == nt_xent(batch)
        assert cosine_sim([1e200, 1e200], [1.0, 0.0]) == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert cosine_sim([1.0, 0.0], [1e200, 1e200]) == pytest.approx(math.sqrt(0.5), abs=1e-15)


def test_single_pair_loss_is_exactly_zero():
    batch = np.array([[3.0, 1.0], [0.5, -2.0]])
    assert nt_xent(batch) == 0.0


def test_identical_embeddings_give_log3():
    batch = np.tile(np.array([[0.3, -1.2, 0.5]]), (4, 1))
    assert abs(nt_xent(batch) - math.log(3.0)) < 1e-12


def test_orthogonal_negatives_closed_form():
    # positives identical unit vectors per pair, cross-pairs orthogonal:
    # loss = ln(1 + 2*exp(-2)) at temperature 0.5
    batch = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    expected = math.log(1.0 + 2.0 * math.exp(-2.0))
    assert nt_xent(batch, temperature=0.5) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.2395448, abs=1e-6)


def test_matches_naive_double_loop(rng):
    for _ in range(300):
        pairs = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 17))
        vectors = rng.normal(size=(2 * pairs, dim))
        temperature = float(rng.uniform(0.1, 2.0))
        fast = nt_xent(vectors, temperature=temperature)
        slow = naive_nt_xent(vectors, temperature)
        assert abs(fast - slow) < 1e-9


def test_bit_equal_to_row_loop(rng):
    for _ in range(100):
        pairs = int(rng.integers(1, 129))
        dim = int(rng.integers(1, 65))
        vectors = rng.normal(size=(2 * pairs, dim))
        for temperature in (0.1, 0.5, 1.0):
            assert nt_xent(vectors, temperature=temperature) == reference_nt_xent(vectors, temperature)


def test_pair_permutation_equivariance(rng):
    vectors = rng.normal(size=(12, 5))
    base = nt_xent(vectors)
    order = np.array([4, 5, 0, 1, 10, 11, 2, 3, 8, 9, 6, 7])
    assert abs(nt_xent(vectors[order]) - base) < 1e-12


def test_scale_invariance(rng):
    vectors = rng.normal(size=(8, 6))
    scaled = vectors.copy()
    scaled[3] *= 17.0
    scaled[6] *= 0.003
    assert abs(nt_xent(scaled) - nt_xent(vectors)) < 1e-9


def test_zero_norm_vector_rejected():
    batch = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError) as info:
        nt_xent(batch)
    assert str(info.value) == "cosine similarity is undefined for zero-norm vectors"


def test_loss_grows_as_negatives_align():
    # rotate the second pair towards the first: negatives become more
    # similar to the anchors and the loss increases monotonically
    losses = []
    for theta in np.linspace(math.pi / 2, 0.05, 12):
        v = np.array([math.cos(theta), math.sin(theta)])
        batch = np.array([[1.0, 0.0], [1.0, 0.0], v, v])
        losses.append(nt_xent(batch))
    assert all(b > a for a, b in zip(losses, losses[1:]))
    assert losses[0] == pytest.approx(math.log(1.0 + 2.0 * math.exp(-2.0)), abs=1e-12)


def test_make_pair_with_lpa_chains_keeps_label(sr_corpus):
    chain1 = parse_chain("VE:0.1:7,SC")
    chain2 = parse_chain("CR:0.2:11,SC")
    for inst in sr_corpus[:60]:
        view1, view2 = apply_chain(inst.formula, chain1), apply_chain(inst.formula, chain2)
        assert solve_brute(view1) is inst.label
        assert solve_brute(view2) is inst.label


def test_make_pair_empty_chains_identity(sr_corpus):
    f = sr_corpus[0].formula
    assert apply_chain(f, ()) == f


def test_make_pair_deletion_and_resolution_views():
    from conftest import formula_of

    f = formula_of(4, [1], [2, 3], [1, -3, 4], [-1, 2, 3, -4])
    up_view, cr_view = apply_chain(f, parse_chain("UP:1:0")), apply_chain(f, parse_chain("CR:0.25:1"))
    assert up_view == formula_of(4, [2, 3], [2, 3, -4])
    assert cr_view == formula_of(4, [1], [2, 3], [1, -3, 4], [-1, 2, 3, -4], [1, 2, 4])
    assert solve_brute(up_view) is solve_brute(f)
    assert solve_brute(cr_view) is solve_brute(f)
