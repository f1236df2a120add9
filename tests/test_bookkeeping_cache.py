"""The bit-rule bookkeeping kept per process: same bytes, read-only, kept from first use."""

import numpy as np
import pytest

from heisenring import ModelSpec, decompose, model, spectral
from heisenring.model import site_indices
from heisenring.oracle import build_hamiltonian
from helpers import random_general_spec

MODES = {"vectors": {}, "values": {"vectors": False}, "pair": {"pair": (1, 2)}}

# what one values-only decomposition of a uniform N = 12 ring keeps: its
# 7 translated sectors and H's moves on each, 189,538 bytes (0.181 MiB)
# when measured; with each momentum block's layout kept as well, the
# sectors came to 469,812 bytes
KEPT_BYTES_N12_VALUES = 200_000


@pytest.fixture
def empty_caches():
    """Fresh process-wide caches for one test, and again after it."""
    spectral._sector_for.cache_clear()
    model._site_indices.cache_clear()
    yield
    spectral._sector_for.cache_clear()
    model._site_indices.cache_clear()


def _arrays(sd):
    """Every array a decomposition hands out, in a fixed order."""
    out = [sd.eigenvalues, sd.sector_labels, np.array(sd.ground_degeneracy)]
    for blk in sd.eigvec_blocks or ():
        out += list(blk)
    for pair in sorted(sd.pair_tables):
        out.append(sd.pair_tables[pair])
    return out


def _uncached(monkeypatch, spec, kwargs):
    # every sector built afresh, so no moves are reused either
    with monkeypatch.context() as m:
        m.setattr(spectral, "_sector_for", spectral._sector_for.__wrapped__)
        return decompose(spec, **kwargs)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("n", [6, 7])
def test_cache_hits_match_an_empty_cache(empty_caches, monkeypatch, n, mode):
    # spec A, other specs of the same N (one with J = 0, so no hops),
    # another pair distance, the vectors mode, an S_z-breaking spec, then A
    # again; three rounds, so every sector and structure is read back
    spec_a = ModelSpec.uniform(n, 1.0, 0.5, 0.3)
    breaking = random_general_spec(n, seed=n, field_b=0.2)
    calls = [(spec_a, MODES[mode]),
             (ModelSpec.uniform(n, -0.8, 2.0, -0.45), MODES[mode]),
             (ModelSpec.uniform(n, 0.0, 1.3, 0.2), MODES[mode]),
             (spec_a, {"pair": (1, 1 + n // 2)}),
             (spec_a, {}),
             (breaking, {"vectors": False} if mode == "values" else {}),
             (spec_a, MODES[mode])]
    for _ in range(3):
        for spec, kwargs in calls:
            got = _arrays(decompose(spec, **kwargs))
            want = _arrays(_uncached(monkeypatch, spec, kwargs))
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert (a is None and b is None) or (a.dtype == b.dtype and np.array_equal(a, b))
    assert spectral._sector_for.cache_info().hits


def _kept(obj):
    """Every array reachable from a kept sector, and every object that holds one."""
    if isinstance(obj, np.ndarray):
        yield obj
        return
    yield obj
    if isinstance(obj, dict):
        for value in obj.values():
            yield from _kept(value)
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            yield from _kept(value)


def _sectors(keys):
    """The kept sectors of `keys`, read back without building any."""
    misses = spectral._sector_for.cache_info().misses
    sectors = [spectral._sector_for(*key) for key in keys]
    assert spectral._sector_for.cache_info().misses == misses
    return sectors


def test_cached_arrays_refuse_assignment(empty_caches):
    spec = ModelSpec.uniform(6, 1.0, 0.5, 0.3)
    for _ in range(2):
        sd = decompose(spec)
        decompose(spec, vectors=False)
        decompose(spec, pair=(1, 3))
        decompose(random_general_spec(5, seed=2, field_b=0.1))
        build_hamiltonian(spec)
    # the translated sectors k = 0..3 and the plain ones k = 0..6 of the
    # uniform ring, each with its moves, then the two parity sectors of the
    # general S_z-breaking ring, which keeps none
    uniform = [*((6, k, False, True) for k in range(4)), *((6, k, False, False) for k in range(7))]
    keys = [*uniform, (5, 0, True, False), (5, 1, True, False)]
    assert spectral._sector_for.cache_info().currsize == len(keys)
    sectors = _sectors(keys)
    for sector in sectors[:len(uniform)]:
        assert sector.moves
        assert all(type(moves) is spectral._Moves for moves in sector.moves.values())
    kept = [a for a in _kept(sectors) if isinstance(a, np.ndarray)]
    kept += [blk.states for blk in sd.eigvec_blocks]
    kept += [sd.excitations, sd.label_magnetization, site_indices((2, 5), 6)]
    assert model._site_indices.cache_info().currsize
    assert len(kept) > 100
    for a in kept:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_a_values_only_decomposition_keeps_sectors_and_moves_only(empty_caches):
    n = 12
    decompose(ModelSpec.uniform(n, 1.0, 0.5, 0.3), vectors=False)
    keys = [(n, k, False, True) for k in range(n // 2 + 1)]
    assert spectral._sector_for.cache_info().currsize == len(keys)
    sectors = _sectors(keys)
    kept, seen = 0, set()
    for sector in sectors:
        # H's one structure, and no entry per momentum block
        (structure,) = sector.moves
        assert len(structure) == 4 * n
        moves = sector.moves[structure]
        elements = int(moves.counts.sum())
        assert all(a.size == elements for a in (moves.roots, moves.rows, moves.cols,
                                                moves.shifts))
        assert moves.signs.shape == (n, sector.reps.size)
        for obj in _kept(sector):
            if isinstance(obj, np.ndarray):
                if id(obj) not in seen:
                    seen.add(id(obj))
                    kept += obj.nbytes
            else:
                assert type(obj) in (spectral._Sector, spectral._Momentum, spectral._Moves,
                                     list, dict, tuple, int, type(None))
    assert 0 < kept <= KEPT_BYTES_N12_VALUES


@pytest.mark.parametrize("conserves_sz", [True, False])
def test_only_uniform_rings_keep_moves(empty_caches, conserves_sz):
    # a general ring, S_z-conserving or not, builds its moves and drops
    # them; a uniform ring keeps H's on the plain sectors of its vectors
    # mode and H's and O_2's on the translated sectors of its other modes
    n = 6
    general = random_general_spec(n, seed=5, field_b=0.2)
    if conserves_sz:
        general = ModelSpec.general(general.coupling.jx, general.coupling.jx,
                                    general.coupling.jz, field_b=0.2)
    for _ in range(2):
        decompose(general)
        decompose(general, vectors=False)
    plain = [(n, k, False, False) for k in range(n + 1)] if conserves_sz else \
        [(n, 0, True, False), (n, 1, True, False)]
    assert spectral._sector_for.cache_info().currsize == len(plain)
    assert all(sector.moves == {} for sector in _sectors(plain))
    uniform = ModelSpec.uniform(n, 1.0, 0.5, 0.3)
    decompose(uniform)
    decompose(general)
    if conserves_sz:
        # the uniform ring keeps its one H structure; the general ring adds none
        assert all(len(sector.moves) == 1 for sector in _sectors(plain))
    decompose(uniform, vectors=False)
    decompose(uniform, pair=(1, 3))
    translated = _sectors([(n, k, False, True) for k in range(n // 2 + 1)])
    assert all(len(sector.moves) == 2 for sector in translated)


def test_kept_structures_build_no_moves(empty_caches, monkeypatch):
    spec = ModelSpec.uniform(7, 1.0, 0.5, 0.3)
    calls = []
    moves = spectral._moves
    monkeypatch.setattr(spectral, "_moves", lambda *args: calls.append(args) or moves(*args))
    # the first run builds H's and O_2's moves on each of the 4 sectors,
    # once per sector and structure; the runs after it build none
    for run in range(3):
        decompose(spec, pair=(1, 3))
        assert len(calls) == (2 * 4 if run == 0 else 0)
        assert len({(id(sector), structure) for sector, structure in calls}) == len(calls)
        calls.clear()
    # the values-only mode reads H's moves on the same sectors; another
    # pair distance builds only O_1's
    decompose(spec, vectors=False)
    assert calls == []
    decompose(spec, pair=(1, 2))
    assert len(calls) == 4


def test_site_indices_cached_by_value(empty_caches):
    # a key is its sites, as a tuple, and ring size; equal keys give one table
    first = site_indices((1, 3), 5)
    assert site_indices([1, 3], 5) is first
    assert site_indices((1, 3), 5) is first
    assert not np.array_equal(site_indices((3, 1), 5), first)
    assert site_indices((1, 3), 6).shape == (4, 16)
    with pytest.raises(ValueError, match="distinct"):
        site_indices((2, 2), 5)
    with pytest.raises(ValueError, match="distinct"):
        site_indices([2, 2], 5)
    # the refused key keeps nothing
    assert model._site_indices.cache_info().currsize == 3
