"""The batched weak-duality evaluator (``NetworkEncoding.lagrangian_uppers``)
and the batched node bounds it is built on.

Properties, over generated small ReLU/LeakyReLU networks:

* the batched bound equals a plain per-leaf closed form (kept below as the
  reference) within 1e-12 relative, and is bitwise the plain batched
  formula (also kept below) for any mix of good, missing, non-finite and
  mis-shaped multipliers;
* it is sound: for any nonnegative multipliers it is at least the node
  LP's maximum;
* one malformed dual row costs that row alone (``+inf``), and
  multipliers packed for another layout cost every row;
* infinite-rhs phase rows, contradictory leaves, N=0 and N=1 behave;
* N=1 ``node_bounds`` is bitwise equal to the scalar per-node reference,
  and a batch equals its rows computed one at a time.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.domains import Box
from repro.domains.batch import phase_clamped_affine_bounds
from repro.exact import NetworkEncoding
from repro.exact.encoding import PackedDuals
from repro.nn import Dense, LeakyReLU, Network, ReLU


# ---------------------------------------------------------------- references
def _reference_node_bounds(enc, phases, tight_pre):
    """One node's ``(lo, hi, b_ub)``, scalar: tight_pre, then each phase,
    then the first contradictory phase in ``(block, unit)`` order (an
    empty ``z`` interval).  The phase rows are the last two ``b_ub`` rows
    per unstable neuron, in ``unstable_neurons()`` order."""
    base = enc._lp_base()
    unstable = enc.unstable_neurons()
    lo, hi = base.col_lo.copy(), base.col_hi.copy()
    b_ub = None if base.b_ub is None else base.b_ub.copy()
    if tight_pre is not None:
        for k, (lower, upper) in enumerate(tight_pre):
            sl = enc.z_slices[k]
            lower = np.asarray(lower, dtype=np.float64).reshape(-1)
            upper = np.asarray(upper, dtype=np.float64).reshape(-1)
            lo[sl] = np.maximum(lo[sl], np.where(np.isfinite(lower), lower,
                                                 -np.inf))
            hi[sl] = np.minimum(hi[sl], np.where(np.isfinite(upper), upper,
                                                 np.inf))
    for pair, phase in phases.items():
        if phase not in (1, -1) or pair not in unstable:
            continue
        zi = enc.z_slices[pair[0]].start + pair[1]
        row = b_ub.size - 2 * len(unstable) + 2 * unstable.index(pair)
        if phase == 1:
            lo[zi] = max(lo[zi], 0.0)
            b_ub[row] = 0.0
        else:
            hi[zi] = min(hi[zi], 0.0)
            b_ub[row + 1] = 0.0
    for (k, i), phase in sorted(phases.items()):
        if phase not in (1, -1) or enc.network.block(k).activation is None:
            continue
        stability = enc.neuron_stability(k, i)
        if (phase, stability) in ((-1, "active"), (1, "inactive")):
            zi = enc.z_slices[k].start + i
            lo[zi], hi[zi] = 1.0, -1.0
            break
    return lo, hi, b_ub


def _reference_upper(enc, cost, phases, tight, dual):
    """Per-leaf closed form: finite variable box, clipped multipliers,
    ``rhs - min_box g @ x``; ``+inf`` for unusable multipliers.  The
    ``z`` columns are the node's own (``tight`` already applied), so a
    contradictory leaf keeps its empty ``[1, -1]`` interval as given."""
    base = enc._lp_base()
    col_lo, col_hi, b_ub = _reference_node_bounds(enc, phases, tight)
    lo = np.full(enc.num_continuous, -np.inf)
    hi = np.full(enc.num_continuous, np.inf)
    lo[enc.input_slice] = enc.input_box.lower
    hi[enc.input_slice] = enc.input_box.upper
    for k, block in enumerate(enc.network.blocks()):
        zl, zu = tight[k]
        if block.activation is not None:
            s = getattr(block.activation, "alpha", 0.0)
            lo[enc.a_slices[k]] = np.maximum(zl, s * zl)
            hi[enc.a_slices[k]] = np.maximum(zu, s * zu)
    lo, hi = np.maximum(lo, col_lo), np.minimum(hi, col_hi)
    if dual is None:
        return np.inf
    lam = np.asarray(dual[0], dtype=np.float64).reshape(-1)
    mu = np.asarray(dual[1], dtype=np.float64).reshape(-1)
    if b_ub is None:  # no unstable neuron: no inequality rows
        b_ub = np.empty(0)
    if lam.size != b_ub.size or mu.size != base.b_eq.size or \
            not (np.isfinite(lam).all() and np.isfinite(mu).all()):
        return np.inf
    finite = np.isfinite(b_ub)
    lam = np.where(finite, np.maximum(lam, 0.0), 0.0)
    g = cost + base.a_eq.T @ mu
    if b_ub.size:
        g = g + base.a_ub.T @ lam
    rhs = float(lam[finite] @ b_ub[finite]) + float(mu @ base.b_eq)
    with np.errstate(invalid="ignore", over="ignore"):
        term = np.where(g > 0, g * lo, g * hi)
        bound = rhs - float(term.sum())
    return bound if np.isfinite(term).all() and np.isfinite(bound) else np.inf


def _reference_batch_uppers(enc, cost, phases, pre_lo, pre_hi, duals):
    """The batched evaluator as a plain formula: fresh operators and
    temporaries per call, ``np.where`` selects.  The evaluator must give
    these bounds bit for bit (same operations per entry, same order)."""
    count = len(phases)
    base = enc._lp_base()
    box_lo, box_hi, b_ub = enc.node_bounds(phases, (pre_lo, pre_hi))
    for k, block in enumerate(enc.network.blocks()):
        if block.activation is not None:
            s = getattr(block.activation, "alpha", 0.0)
            zl, zu, a = pre_lo[k], pre_hi[k], enc.a_slices[k]
            box_lo[:, a] = np.maximum(np.maximum(zl, s * zl), box_lo[:, a])
            box_hi[:, a] = np.minimum(np.maximum(zu, s * zu), box_hi[:, a])
    m_ub, m_eq = enc.dual_rows()
    lam = np.zeros((count, m_ub))
    mu = np.zeros((count, m_eq))
    valid = np.zeros(count, dtype=bool)
    rows = duals.matrix
    if duals.split == m_ub and rows.shape[1] == m_ub + m_eq:
        finite = np.isfinite(rows).all(axis=1)
        at = np.flatnonzero(duals.present)[finite]
        lam[at], mu[at] = rows[finite, :m_ub], rows[finite, m_ub:]
        valid[at] = True
    g = np.broadcast_to(np.asarray(cost, dtype=np.float64), box_lo.shape)
    rhs = np.zeros(count)
    if m_ub:
        finite = np.isfinite(b_ub)
        lam = np.where(finite, np.maximum(lam, 0.0), 0.0)
        g = g + lam @ base.a_ub
        rhs += np.einsum("ij,ij->i", lam, np.where(finite, b_ub, 0.0))
    if m_eq:
        g = g + mu @ base.a_eq
        rhs += mu @ base.b_eq
    with np.errstate(invalid="ignore", over="ignore"):
        term = np.where(g > 0, g * box_lo, g * box_hi)
        bound = rhs - term.sum(axis=1)
    valid &= np.isfinite(term).all(axis=1) & np.isfinite(bound)
    return np.where(valid, bound, np.inf)


# ---------------------------------------------------------------- problems
@st.composite
def _problems(draw, leaves=(1, 6)):
    """A small net, its encoding, N phase maps over *all* activation
    neurons (stable ones make contradictory leaves), their phase-clamped
    pre-activation bounds, a cost and an rng."""
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    dims = [draw(st.integers(2, 3))] + \
        draw(st.lists(st.integers(2, 6), min_size=1, max_size=2)) + \
        [draw(st.integers(1, 2))]
    alpha = draw(st.sampled_from([None, 0.01, 0.2]))
    layers = []
    for i in range(len(dims) - 1):
        layers.append(Dense(dims[i], dims[i + 1],
                            weight=rng.normal(size=(dims[i + 1], dims[i])),
                            bias=rng.normal(scale=0.5, size=dims[i + 1])))
        if i < len(dims) - 2:
            layers.append(ReLU() if alpha is None else LeakyReLU(alpha))
    net = Network(layers, input_dim=dims[0])
    box = Box(-np.ones(dims[0]), np.ones(dims[0]))
    enc = NetworkEncoding(net, box)
    neurons = [(k, i) for k, block in enumerate(net.blocks())
               if block.activation is not None for i in range(block.out_dim)]
    maps = []
    for _ in range(draw(st.integers(*leaves))):
        chosen = draw(st.lists(st.sampled_from(neurons), unique=True,
                               max_size=min(4, len(neurons))))
        maps.append({pair: draw(st.sampled_from([-1, 1]))
                     for pair in chosen})
    c = rng.normal(size=dims[-1])
    _, _, pre_lo, pre_hi = phase_clamped_affine_bounds(net, box, maps, c)
    return enc, maps, pre_lo, pre_hi, -enc.output_objective(c), rng


def _tight(pre_lo, pre_hi, j):
    return [(lo[j], hi[j]) for lo, hi in zip(pre_lo, pre_hi)]


def _random_duals(enc, rng, count):
    base = enc._lp_base()
    m_ub = 0 if base.b_ub is None else base.b_ub.size
    return [(rng.exponential(size=m_ub) * (rng.random(m_ub) < 0.5),
             rng.normal(size=base.b_eq.size)) for _ in range(count)]


def _own_duals(enc, cost, maps, pre_lo, pre_hi):
    """Each leaf's own node-LP duals (``None`` when it has no optimum)."""
    duals = []
    for j, leaf in enumerate(maps):
        res = enc.solve_node(cost, leaf, _tight(pre_lo, pre_hi, j))
        duals.append((res.dual_ub, res.dual_eq) if res.optimal else None)
    return duals


def _close(a, b, rel=1e-12):
    if np.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(1.0, abs(b))


SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# -------------------------------------------------------------- node bounds
@SETTINGS
@given(_problems(), st.sampled_from(["none", "clamped", "shrunk"]))
def test_single_node_bounds_are_bitwise_the_reference(problem, mode):
    enc, maps, pre_lo, pre_hi, _cost, rng = problem
    for j, phases in enumerate(maps):
        tight = None
        if mode != "none":
            tight = _tight(pre_lo, pre_hi, j)
        if mode == "shrunk":
            # Random sub-intervals, sometimes crossing, plus a non-finite.
            tight = [(lo + rng.uniform(0, 0.6) * (hi - lo),
                      hi - rng.uniform(0, 0.6) * (hi - lo))
                     for lo, hi in tight]
            tight[0][0][0] = np.nan
        got = enc.node_bounds(phases, tight)
        want = _reference_node_bounds(enc, phases, tight)
        for left, right in zip(got, want):
            if right is None:  # no unstable neuron: no inequality rows
                assert left is None
                continue
            assert left.shape == right.shape
            assert left.tobytes() == right.tobytes()


@SETTINGS
@given(_problems(leaves=(0, 6)))
def test_batch_node_bounds_are_the_rows(problem):
    enc, maps, pre_lo, pre_hi, _cost, _rng = problem
    assume(enc._lp_base().b_ub is not None)
    lo, hi, b_ub = enc.node_bounds(maps, (pre_lo, pre_hi))
    assert lo.shape == hi.shape == (len(maps), enc.num_continuous)
    assert b_ub.shape == (len(maps), enc._lp_base().b_ub.size)
    for j, phases in enumerate(maps):
        row = enc.node_bounds(phases, _tight(pre_lo, pre_hi, j))
        for batch, single in zip((lo[j], hi[j], b_ub[j]), row):
            assert batch.tobytes() == single.tobytes()


# ---------------------------------------------------------------- evaluator
@SETTINGS
@given(_problems())
def test_matches_the_per_leaf_closed_form(problem):
    enc, maps, pre_lo, pre_hi, cost, rng = problem
    own = _own_duals(enc, cost, maps, pre_lo, pre_hi)
    random = _random_duals(enc, rng, len(maps))
    for duals in (own, random):
        got = enc.lagrangian_uppers(cost, maps, pre_lo, pre_hi,
                                    PackedDuals.pack(duals))
        assert got.shape == (len(maps),)
        for j, leaf in enumerate(maps):
            want = _reference_upper(enc, cost, leaf,
                                    _tight(pre_lo, pre_hi, j), duals[j])
            assert _close(got[j], want), (j, got[j], want)


@SETTINGS
@given(_problems(leaves=(1, 8)), st.data())
def test_bitwise_the_plain_batched_formula(problem, data):
    """Per node, good multipliers, missing ones, ones with a non-finite
    entry (``+inf`` for that node) or, for the whole batch, ones shaped
    for another layout (``+inf`` everywhere): the evaluator's bounds are
    the plain formula's, bit for bit."""
    enc, maps, pre_lo, pre_hi, cost, rng = problem
    duals = (_own_duals(enc, cost, maps, pre_lo, pre_hi)
             if data.draw(st.booleans()) else
             _random_duals(enc, rng, len(maps)))
    for j, dual in enumerate(duals):
        fault = data.draw(st.sampled_from(["none", "none", "missing",
                                           "nan", "inf"]))
        if dual is None or fault == "missing":
            duals[j] = None
        elif fault != "none" and dual[1].size:
            bad = np.nan if fault == "nan" else np.inf
            duals[j] = (dual[0], np.where(np.arange(dual[1].size) == 0,
                                          bad, dual[1]))
    packed = PackedDuals.pack(duals)
    shape = data.draw(st.sampled_from(["layout", "layout", "split",
                                       "width"]))
    if shape == "split" and packed.matrix.shape[1]:
        packed = PackedDuals(packed.matrix, packed.present,
                             (packed.split + 1) % packed.matrix.shape[1])
    elif shape == "width":
        packed = PackedDuals(
            np.hstack([packed.matrix, np.zeros((len(packed.matrix), 1))]),
            packed.present, packed.split)
    got = enc.lagrangian_uppers(cost, maps, pre_lo, pre_hi, packed)
    want = _reference_batch_uppers(enc, cost, maps, pre_lo, pre_hi, packed)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()
    if not packed.fits(enc.dual_rows()):
        assert (got == np.inf).all()


@SETTINGS
@given(_problems())
def test_sound_for_any_nonnegative_multipliers(problem):
    enc, maps, pre_lo, pre_hi, cost, rng = problem
    duals = _random_duals(enc, rng, len(maps))
    got = enc.lagrangian_uppers(cost, maps, pre_lo, pre_hi,
                                PackedDuals.pack(duals))
    for j, leaf in enumerate(maps):
        res = enc.solve_node(cost, leaf, _tight(pre_lo, pre_hi, j))
        if res.optimal:
            assert got[j] >= -res.value - 1e-9


@SETTINGS
@given(_problems(leaves=(2, 6)), st.sampled_from(["nan", "inf", "none"]))
def test_one_malformed_row_costs_that_row_only(problem, fault):
    enc, maps, pre_lo, pre_hi, cost, rng = problem
    assume(enc._lp_base().b_ub is not None)  # lambda has entries to spoil
    duals = _random_duals(enc, rng, len(maps))
    clean = enc.lagrangian_uppers(cost, maps, pre_lo, pre_hi,
                                  PackedDuals.pack(duals))
    bad = int(rng.integers(len(maps)))
    lam, mu = duals[bad]
    duals[bad] = {
        "nan": (np.where(np.arange(lam.size) == 0, np.nan, lam), mu),
        "inf": (lam, np.where(np.arange(mu.size) == 0, np.inf, mu)),
        "none": None,
    }[fault]
    got = enc.lagrangian_uppers(cost, maps, pre_lo, pre_hi,
                                PackedDuals.pack(duals))
    assert got[bad] == np.inf
    others = np.arange(len(maps)) != bad
    np.testing.assert_array_equal(got[others], clean[others])


@SETTINGS
@given(_problems(leaves=(1, 6)), st.sampled_from(["split", "width"]))
def test_multipliers_for_another_layout_cost_every_row(problem, fault):
    """One packed matrix has one row shape: a ``split`` or width that is
    not this layout's ``(m_ub, m_eq)`` bounds no node."""
    enc, maps, pre_lo, pre_hi, cost, rng = problem
    packed = PackedDuals.pack(_random_duals(enc, rng, len(maps)))
    matrix, split = packed.matrix, packed.split
    if fault == "split":
        split = split + 1 if split < matrix.shape[1] else split - 1
    else:
        matrix = np.hstack([matrix, np.zeros((len(matrix), 1))])
    got = enc.lagrangian_uppers(cost, maps, pre_lo, pre_hi,
                                PackedDuals(matrix, packed.present, split))
    assert (got == np.inf).all()


class TestEdgeCases:
    @pytest.fixture(scope="class")
    def problem(self):
        from repro.nn import random_relu_network

        net = random_relu_network([3, 8, 6, 1], seed=2, weight_scale=1.0)
        box = Box(-np.ones(3), np.ones(3))
        enc = NetworkEncoding(net, box)
        return net, box, enc, -enc.output_objective(np.ones(1))

    def _batch(self, net, box, maps):
        _, feasible, pre_lo, pre_hi = phase_clamped_affine_bounds(
            net, box, maps, np.ones(1))
        return feasible, pre_lo, pre_hi

    def test_zero_leaves(self, problem):
        net, box, enc, cost = problem
        _, pre_lo, pre_hi = self._batch(net, box, [])
        got = enc.lagrangian_uppers(cost, [], pre_lo, pre_hi,
                                    PackedDuals.pack([]))
        assert got.shape == (0,)

    def test_one_leaf_matches_the_reference(self, problem):
        net, box, enc, cost = problem
        leaf = {enc.unstable_neurons()[0]: 1}
        _, pre_lo, pre_hi = self._batch(net, box, [leaf])
        (dual,) = _own_duals(enc, cost, [leaf], pre_lo, pre_hi)
        (got,) = enc.lagrangian_uppers(cost, [leaf], pre_lo, pre_hi,
                                       PackedDuals.pack([dual]))
        assert _close(got, _reference_upper(
            enc, cost, leaf, _tight(pre_lo, pre_hi, 0), dual))

    def test_multipliers_on_infinite_rhs_rows_are_ignored(self, problem):
        """Unfixed phase rows have ``b_ub = +inf``; a multiplier there
        would make ``lambda @ b_ub`` nan, so it counts as 0."""
        net, box, enc, cost = problem
        leaf = {enc.unstable_neurons()[0]: -1}
        _, pre_lo, pre_hi = self._batch(net, box, [leaf])
        (dual,) = _own_duals(enc, cost, [leaf], pre_lo, pre_hi)
        _, _, b_ub = enc.node_bounds(leaf)
        loud = np.where(np.isinf(b_ub), 1e6, dual[0])
        plain, noisy = enc.lagrangian_uppers(
            cost, [leaf, leaf], [np.repeat(lo, 2, 0) for lo in pre_lo],
            [np.repeat(hi, 2, 0) for hi in pre_hi],
            PackedDuals.pack([dual, (loud, dual[1])]))
        assert np.isfinite(plain) and plain == noisy

    def test_signed_zero_and_non_finite_tight_pre(self, problem):
        """A ``-0.0`` bound already on the fixed side keeps its sign bit;
        ``nan`` and wrong-way infinities keep the base bound."""
        net, box, enc, _cost = problem
        (k, i), *_ = enc.unstable_neurons()
        tight = [(lo[0].copy(), hi[0].copy())
                 for lo, hi in zip(*self._batch(net, box, [{}])[1:])]
        other = (i + 1) % net.block(k).out_dim
        tight[k][0][i], tight[k][1][i] = -0.0, -np.inf
        tight[k][0][other], tight[k][1][other] = np.inf, np.nan
        phases = {(k, i): 1}
        got = enc.node_bounds(phases, tight)
        want = _reference_node_bounds(enc, phases, tight)
        for left, right in zip(got, want):
            assert left.tobytes() == right.tobytes()
        zi, zo = enc.z_slices[k].start + i, enc.z_slices[k].start + other
        base = enc.node_bounds()
        assert got[0][zi] == 0.0 and np.signbit(got[0][zi])
        assert got[1][zi] == base[1][zi]
        assert (got[0][zo], got[1][zo]) == (base[0][zo], base[1][zo])

    def test_mis_shaped_tight_pre_is_rejected(self, problem):
        from repro.errors import DomainError

        net, box, enc, _cost = problem
        _, pre_lo, pre_hi = self._batch(net, box, [{}, {}])
        with pytest.raises(DomainError, match="tight_pre"):
            enc.node_bounds([{}], (pre_lo, pre_hi))
        with pytest.raises(DomainError, match="tight_pre"):
            enc.node_bounds({}, [(lo[0, :-1], hi[0, :-1])
                                 for lo, hi in zip(pre_lo, pre_hi)])

    def test_contradictory_leaf_has_an_empty_column(self, problem):
        """A phase against static stability gives the ``[1, -1]`` column;
        the evaluator still answers per leaf (any bound is sound on an
        empty region) and leaves the other leaves alone."""
        net, box, enc, cost = problem
        stable = next((k, i) for k, block in enumerate(net.blocks())
                      if block.activation is not None
                      for i in range(block.out_dim)
                      if enc.neuron_stability(k, i) != "unstable")
        wrong = 1 if enc.neuron_stability(*stable) == "inactive" else -1
        maps = [{stable: wrong}, {}]
        lo, hi, _ = enc.node_bounds(maps, self._batch(net, box, maps)[1:])
        zi = enc.z_slices[stable[0]].start + stable[1]
        assert (lo[0, zi], hi[0, zi]) == (1.0, -1.0)
        assert (lo[0] <= hi[0]).sum() == enc.num_continuous - 1
        assert (lo[1] <= hi[1]).all()
        _, pre_lo, pre_hi = self._batch(net, box, maps)
        duals = [_own_duals(enc, cost, [{}], [lo[1:] for lo in pre_lo],
                            [hi[1:] for hi in pre_hi])[0]] * 2
        got = enc.lagrangian_uppers(cost, maps, pre_lo, pre_hi,
                                    PackedDuals.pack(duals))
        assert not np.isnan(got).any()
        assert _close(got[1], _reference_upper(
            enc, cost, {}, _tight(pre_lo, pre_hi, 1), duals[1]))
