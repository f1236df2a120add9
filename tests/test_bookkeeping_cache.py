"""The bit-rule bookkeeping kept per process: same bytes, read-only, kept only on reuse."""

import weakref

import numpy as np
import pytest

from heisenring import ModelSpec, decompose, model, spectral
from heisenring.model import ReuseCache, site_indices
from heisenring.oracle import build_hamiltonian
from helpers import random_general_spec

MODES = {"vectors": {}, "values": {"vectors": False}, "pair": {"pair": (1, 2)}}


@pytest.fixture
def empty_caches(monkeypatch):
    """Fresh process-wide caches for one test; the session's come back after it."""
    monkeypatch.setattr(spectral, "_SECTORS", ReuseCache())
    monkeypatch.setattr(model, "_SITE_INDICES", ReuseCache())


def _arrays(sd):
    """Every array a decomposition hands out, in a fixed order."""
    out = [sd.eigenvalues, sd.sector_labels, np.array(sd.ground_degeneracy)]
    for blk in sd.eigvec_blocks or ():
        out += list(blk)
    for pair in sorted(sd.pair_tables):
        out.append(sd.pair_tables[pair])
    return out


def _uncached(monkeypatch, spec, kwargs):
    with monkeypatch.context() as m:
        m.setattr(spectral, "_SECTORS", ReuseCache())
        return decompose(spec, **kwargs)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("n", [6, 7])
def test_cache_hits_match_an_empty_cache(empty_caches, monkeypatch, n, mode):
    # spec A, other specs of the same N (one with J = 0, so no hops),
    # another pair distance, the vectors mode, an S_z-breaking spec, then A
    # again; three rounds, so every key is kept by the third
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
    assert spectral._SECTORS.kept


def _kept_arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, ReuseCache):
        for value in obj.kept.values():
            yield from _kept_arrays(value)
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            yield from _kept_arrays(value)


def test_cached_arrays_refuse_assignment(empty_caches):
    spec = ModelSpec.uniform(6, 1.0, 0.5, 0.3)
    for _ in range(3):
        sd = decompose(spec)
        decompose(spec, vectors=False)
        decompose(spec, pair=(1, 3))
        decompose(random_general_spec(5, seed=2, field_b=0.1))
        build_hamiltonian(spec)
    kept = list(_kept_arrays(spectral._SECTORS)) + list(_kept_arrays(model._SITE_INDICES))
    kept += [blk.states for blk in sd.eigvec_blocks]
    kept += [sd.excitations, sd.label_magnetization, site_indices((2, 5), 6)]
    # the sectors, their terms with every momentum's layout, and
    # site_indices were all kept
    assert len(spectral._SECTORS.kept) == 4 + 7 + 2
    for sector in spectral._SECTORS.kept.values():
        cached = sector.terms.kept
        structures = [key for key, value in cached.items() if isinstance(value, spectral._Terms)]
        assert structures
        assert set(cached) == {*structures, *((structure, momentum.m) for structure in structures
                                            for momentum in sector.momenta)}
    assert model._SITE_INDICES.kept
    assert len(kept) > 100
    for a in kept:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


@pytest.mark.parametrize("spec,kwargs", [
    *((ModelSpec.uniform(6, 1.0, 0.5, 0.3), kwargs) for kwargs in MODES.values()),
    *((random_general_spec(6, seed=4, field_b=0.2), MODES[mode]) for mode in ("vectors", "values")),
], ids=[*(f"uniform-{mode}" for mode in MODES), "general-vectors", "general-values"])
def test_a_ring_decomposed_once_keeps_nothing(empty_caches, spec, kwargs):
    # the dense uniform ring asks for each bond's and each site's indices
    # once; a general ring asks for a pair's once per coupled axis
    dense = ModelSpec.uniform(6, 1.0, 0.5, 0.3)
    decompose(spec, **kwargs)
    build_hamiltonian(dense)
    assert spectral._SECTORS.kept == {} and model._SITE_INDICES.kept == {}
    # each key was noted, and is kept on its second request
    assert spectral._SECTORS.asked and model._SITE_INDICES.asked
    decompose(spec, **kwargs)
    build_hamiltonian(dense)
    assert spectral._SECTORS.asked == set(spectral._SECTORS.kept)
    assert model._SITE_INDICES.asked == set(model._SITE_INDICES.kept)


def test_a_ring_decomposed_once_holds_one_layout_at_a_time(empty_caches, monkeypatch):
    # no key is kept, so each momentum block's layout is freed before the
    # next block is written
    built, alive, seen = spectral._layout, set(), []

    def layout(*args):
        value = built(*args)
        key = object()
        alive.add(key)
        weakref.finalize(value.hops, alive.discard, key)
        return value

    def real_block(*args):
        seen.append(len(alive))
        return write(*args)

    write = spectral._real_block
    monkeypatch.setattr(spectral, "_layout", layout)
    monkeypatch.setattr(spectral, "_real_block", real_block)
    decompose(ModelSpec.uniform(8, 1.0, 0.5, 0.3), vectors=False)
    # 21 blocks: k = 0 has momentum 0 only, k = 1 to 4 momenta 0 to 4
    assert len(seen) == 21 and set(seen) == {1}


def test_kept_structures_build_no_moves(empty_caches, monkeypatch):
    spec = ModelSpec.uniform(7, 1.0, 0.5, 0.3)
    calls = []
    moves = spectral._moves
    monkeypatch.setattr(spectral, "_moves", lambda *args: calls.append(args) or moves(*args))
    # a sector is kept from the second run, its structures from the third:
    # one build of the moves per sector and structure in each
    for _ in range(3):
        decompose(spec, pair=(1, 3))
        assert len(calls) == 2 * 4
        calls.clear()
    decompose(spec, pair=(1, 3))
    assert calls == []


def test_site_indices_cached_by_value(empty_caches):
    # a key is its sites and ring size; equal keys give equal tables
    first = site_indices((1, 3), 5)
    assert site_indices([1, 3], 5) is not first  # second request: built and kept
    assert site_indices((1, 3), 5) is site_indices((1, 3), 5)
    assert np.array_equal(site_indices((1, 3), 5), first)
    assert not np.array_equal(site_indices((3, 1), 5), first)
    assert site_indices((1, 3), 6).shape == (4, 16)
    with pytest.raises(ValueError, match="distinct"):
        site_indices((2, 2), 5)
    with pytest.raises(ValueError, match="distinct"):
        site_indices((2, 2), 5)
    assert ((2, 2), 5) not in model._SITE_INDICES.asked
