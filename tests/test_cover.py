"""The certificate covering check (``repro.certs.leaves_cover``) against a
brute-force oracle.

Over at most 6 hidden neurons every leaf set can be checked point by point
on ``{+-1}^H``.  ``leaves_cover`` accepts exactly the leaf sets that
partition the space (after dropping duplicates), so:

* on branch-and-bound-style random partitions it is ``True``, and with one
  leaf dropped or one leaf over-constrained it is ``False`` -- both as
  enumeration says;
* on arbitrary cube sets (duplicates, overlaps, gaps) it is never ``True``
  where enumeration finds a gap (soundness), and it is ``True`` exactly
  when enumeration finds a cover and no two distinct leaves overlap.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.certs import certificate as certificate_module
from repro.certs import leaves_cover

MAX_H = 6


def _brute_cover(leaves, h):
    """Enumerate ``{+-1}^h``: is every point inside some leaf?"""
    for point in itertools.product((1, -1), repeat=h):
        if not any(all(point[unit] == phase
                       for (_block, unit), phase in leaf.items())
                   for leaf in leaves):
            return False
    return True


def _overlap(leaves):
    """Do two distinct leaves share a point (no neuron with opposite
    phases)?"""
    unique = list({tuple(sorted(m.items())): m for m in leaves}.values())
    return any(all(b.get(var, phase) == phase for var, phase in a.items())
               for i, a in enumerate(unique) for b in unique[i + 1:])


def _check(leaves, h):
    expected = _brute_cover(leaves, h)
    decided = leaves_cover(leaves)
    assert decided is (expected and not _overlap(leaves))
    return decided


@st.composite
def cube_sets(draw):
    """Random cubes: overlaps, gaps and explicit duplicates."""
    h = draw(st.integers(1, MAX_H))
    cube = st.dictionaries(st.integers(0, h - 1).map(lambda u: (0, u)),
                           st.sampled_from((1, -1)), max_size=h)
    leaves = draw(st.lists(cube, max_size=12))
    if leaves and draw(st.booleans()):
        leaves.append(dict(draw(st.sampled_from(leaves))))
    return h, leaves


@st.composite
def partitions(draw):
    """A branch-and-bound frontier: split random leaves on random free
    neurons, starting from the root."""
    h = draw(st.integers(1, MAX_H))
    leaves = [{}]
    for _ in range(draw(st.integers(0, 2 ** h))):
        j = draw(st.integers(0, len(leaves) - 1))
        free = [u for u in range(h) if (0, u) not in leaves[j]]
        if not free:
            continue
        unit = draw(st.sampled_from(free))
        leaf = leaves.pop(j)
        leaves += [{**leaf, (0, unit): 1}, {**leaf, (0, unit): -1}]
    order = draw(st.permutations(range(len(leaves))))
    return h, [leaves[j] for j in order]


@settings(max_examples=200, deadline=None)
@given(cube_sets())
def test_random_cube_sets_match_enumeration(case):
    h, leaves = case
    _check(leaves, h)


@settings(max_examples=120, deadline=None)
@given(partitions())
def test_partitions_cover(case):
    h, leaves = case
    assert _check(leaves, h) is True
    # Duplicated leaves are legal solver output, not overlaps.
    assert _check(leaves + [dict(leaves[0])], h) is True


@settings(max_examples=120, deadline=None)
@given(partitions(), st.data())
def test_partition_with_a_dropped_leaf_has_a_gap(case, data):
    h, leaves = case
    j = data.draw(st.integers(0, len(leaves) - 1))
    assert _check(leaves[:j] + leaves[j + 1:], h) is False


@settings(max_examples=120, deadline=None)
@given(partitions(), st.data())
def test_over_constrained_leaf_has_a_gap(case, data):
    h, leaves = case
    open_leaves = [j for j, leaf in enumerate(leaves) if len(leaf) < h]
    if not open_leaves:
        return
    j = data.draw(st.sampled_from(open_leaves))
    free = [u for u in range(h) if (0, u) not in leaves[j]]
    unit = data.draw(st.sampled_from(free))
    changed = list(leaves)
    changed[j] = {**leaves[j], (0, unit): data.draw(st.sampled_from((1, -1)))}
    assert _check(changed, h) is False


def test_edge_cases():
    assert leaves_cover([]) is False
    assert leaves_cover([{}]) is True
    # Disjoint, but a quarter of the square is missing.
    assert leaves_cover([{(0, 0): 1, (0, 1): 1}, {(0, 0): -1}]) is False
    # Overlapping and too small.
    assert leaves_cover([{(0, 0): 1, (0, 1): 1}, {(0, 0): 1}]) is False
    # Covering but overlapping (the root overlaps everything), and
    # overlapping with the exact total volume: not a partition, rejected.
    assert leaves_cover([{}, {(0, 0): 1}]) is False
    assert leaves_cover([{(0, 0): 1}, {(0, 1): 1},
                         {(0, 0): -1, (0, 1): -1}]) is False
    assert leaves_cover([{(0, 0): 1}, {(0, 1): 1}]) is False


def test_phases_outside_pm1_reject():
    assert leaves_cover([{(0, 0): 0}, {(0, 0): 1}, {(0, 0): -1}]) is False


def test_volume_count_is_exact_past_float_precision():
    """A 70-neuron chain partition (bits past one 64-bit word, volumes
    2^70 apart): dropping the smallest leaf leaves a one-point gap."""
    h = 70
    chain = [{**{(0, u): 1 for u in range(i)}, (0, i): -1} for i in range(h)]
    chain.append({(0, u): 1 for u in range(h)})
    assert leaves_cover(chain) is True
    assert leaves_cover(chain[:-1]) is False
    assert leaves_cover(chain[1:]) is False


@pytest.mark.parametrize("chunk_bytes", [1, 64])
def test_chunked_disjointness_matches_one_chunk(monkeypatch, chunk_bytes):
    leaves = [{(0, 0): 1, (0, 1): s} for s in (1, -1)] + [{(0, 0): -1}]
    # Same total volume as a partition, but {+a,+b} and {+b} overlap.
    overlapping = [{(0, 0): 1, (0, 1): 1}, {(0, 1): 1}, {(0, 0): -1,
                                                        (0, 1): -1}]
    monkeypatch.setattr(certificate_module, "_COVER_CHUNK_BYTES",
                        chunk_bytes)
    assert leaves_cover(leaves) is True
    assert leaves_cover(leaves[:-1]) is False
    assert leaves_cover(overlapping) is False
