"""filters._train_product: the one-entry train-product memo of apply_train_to_coherency and
mueller_of_train, and the Mueller matrix that mueller_of_train keeps in its entry.  Every call
must give exactly what a memo-free fold gives.  The memo has no basis: the train calls of
either basis tag reach the same entry, so each test runs with both tags."""

import copy
import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from polspin import (
    Attenuator,
    EmptyTrainError,
    ExtinctionError,
    HalfWave,
    QuarterWave,
    Rotator,
    StokesVector,
    apply_filter_to_coherency,
    apply_train_to_coherency,
    coherency_from_stokes,
    mueller_of_train,
    stokes_from_coherency,
)
from polspin import filters, partial
from polspin.dsl import parse_train
from polspin.filters import _fold, _train_product
from polspin.partial import _apply, _mueller_rows, apply_mueller

from .test_cli import long_train_text
from .test_partial import README_TRAIN

BASES = ["circular", "linear"]
OTHER = {"circular": "linear", "linear": "circular"}


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    monkeypatch.setattr(filters, "_last_fold", None)


@pytest.fixture
def folds(monkeypatch):
    """The trains _fold is called on, as lists."""
    calls = []

    def counting(train):
        calls.append(list(train))
        return _fold(train)

    monkeypatch.setattr(filters, "_fold", counting)
    return calls


@pytest.fixture
def mueller_rows(monkeypatch):
    """The products _mueller_rows is called on."""
    calls = []

    def counting(*product):
        calls.append(product)
        return _mueller_rows(*product)

    monkeypatch.setattr(partial, "_mueller_rows", counting)
    return calls


def readme():
    return list(parse_train(README_TRAIN).document.elements)


def memo_free(train):
    """repr of _fold(train), folded without the memo."""
    return repr(_fold(train))


def product(train, basis):
    """The memo's product after apply_train_to_coherency, on a beam in basis, folded or
    reused train."""
    apply_train_to_coherency(train, coherency_from_stokes(StokesVector(1.0, 0.2, 0.0, 0.1), basis))
    return filters._last_fold[1]


@pytest.mark.parametrize("basis", BASES)
class TestHitsAndMisses:
    def test_repeat_call_hits(self, basis, folds):
        train = readme()
        first = product(train, basis)
        assert product(train, basis) is first and _train_product(train) is first
        assert repr(first) == memo_free(train)
        assert folds == [train]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda t: t.__setitem__(2, Rotator(0.7)),
            lambda t: t.append(QuarterWave(0.3)),
            lambda t: t.reverse(),
            lambda t: t.pop(),
        ],
        ids=["replaced", "appended", "reordered", "removed"],
    )
    def test_in_place_list_edit_misses(self, basis, folds, edit):
        train = readme()
        product(train, basis)
        edit(train)
        assert repr(product(train, basis)) == memo_free(train)
        assert len(folds) == 2 and folds[1] == train

    def test_value_equal_copy_misses(self, basis, folds):
        train = readme()
        product(train, basis)
        twin = copy.deepcopy(train[3])
        assert twin == train[3]
        train[3] = twin
        assert repr(product(train, basis)) == memo_free(train)
        assert len(folds) == 2

    def test_switch_of_basis_hits(self, basis, folds, mueller_rows):
        # one product and one Mueller matrix serve both tags: Stokes space has no basis
        train = readme()
        other = "linear" if basis == "circular" else "circular"
        first = product(train, basis)
        assert product(train, other) is first and repr(first) == memo_free(train)
        mm = mueller_of_train(train, basis)
        assert repr(mueller_of_train(train, other).tolist()) == repr(mm.tolist())
        assert len(folds) == 1 and len(mueller_rows) == 1

    def test_switch_of_basis_misses(self, basis, folds):
        # a switch of basis tag changes only the view: both calls hold the one Stokes vector
        # of the one product both tags share
        train = readme()
        other = "linear" if basis == "circular" else "circular"
        s = StokesVector(1.0, 0.2, 0.0, 0.1)
        first = apply_train_to_coherency(train, coherency_from_stokes(s, basis))
        out = apply_train_to_coherency(train, coherency_from_stokes(s, other))
        assert first.basis == basis and out.basis == other
        assert repr(out) == repr(_apply(_fold(train), coherency_from_stokes(s, other)))
        assert not np.array_equal(out.matrix, first.matrix)
        assert repr(stokes_from_coherency(out)) == repr(stokes_from_coherency(first))
        assert repr(apply_train_to_coherency(train, coherency_from_stokes(s, basis))) == repr(first)
        assert len(folds) == 1

    def test_generator_train(self, basis, folds):
        train = readme()
        assert repr(product((e for e in train), basis)) == memo_free(train)
        assert repr(product(iter(train), basis)) == memo_free(train)
        assert len(folds) == 1  # the same objects: the second generator hits

    @pytest.mark.parametrize(
        "bad, error",
        [([], EmptyTrainError), ([Rotator(0.1), "qwp"], TypeError), ([None], TypeError)],
        ids=["empty", "non-element", "none"],
    )
    def test_a_fold_that_raises_stores_nothing(self, basis, bad, error):
        train = readme()
        first = product(train, basis)
        entry = filters._last_fold
        for _ in range(2):
            with pytest.raises(error):
                product(bad, basis)
            assert filters._last_fold is entry
        assert product(train, basis) is first

    def test_raises_as_before_on_an_empty_memo(self, basis):
        with pytest.raises(EmptyTrainError):
            product(iter([]), basis)
        assert filters._last_fold is None

    def test_extinct_train_raises_on_every_call(self, basis, folds):
        train = [Attenuator(400.0, 400.0)]  # M00 and s0 underflow: the checks are per beam
        assert repr(_train_product(train)) == memo_free(train)
        c = coherency_from_stokes(StokesVector(1.0, 0.2, 0.0, 0.1), basis)
        for _ in range(2):
            with pytest.raises(ExtinctionError):
                mueller_of_train(train, basis)
            with pytest.raises(ExtinctionError):
                apply_train_to_coherency(train, c)
        assert len(folds) == 1


def memo_free_mueller(train):
    """mueller_of_train(train) folded and built without the memo."""
    return np.array(_mueller_rows(*_fold(train)))


def kept():
    """The Mueller matrix in the memo entry, None if there is none."""
    return filters._last_fold[2]


@pytest.mark.parametrize("basis", BASES)
class TestKeptMueller:
    def test_rows_run_once_per_train(self, basis, folds, mueller_rows):
        train = readme()
        got = [mueller_of_train(train, basis) for _ in range(5)]
        assert len(folds) == 1 and len(mueller_rows) == 1
        want = memo_free_mueller(train)
        for mm in got:  # the miss and every hit: the digits of a memo-free build
            assert repr(mm) == repr(want) and repr(mm.tolist()) == repr(want.tolist())
            assert mm.tobytes(order="A") == want.tobytes(order="A")

    def test_each_call_returns_a_new_writable_array(self, basis):
        train = readme()
        first = mueller_of_train(train, basis)
        want = repr(first.tolist())
        seen = [first]
        for _ in range(3):
            mm = mueller_of_train(train, basis)
            assert mm.flags.writeable and mm.flags.owndata
            assert not any(np.shares_memory(mm, other) for other in seen + [kept()])
            assert repr(mm.tolist()) == want
            mm[:] = 7.0  # the caller's array: the next call is unchanged
            seen.append(mm)
        assert not kept().flags.writeable
        assert repr(kept().tolist()) == want

    @pytest.mark.parametrize(
        "edit",
        [
            lambda t, b: (t.__setitem__(2, Rotator(0.7)), b),
            lambda t, b: (t.append(QuarterWave(0.3)), b),
            lambda t, b: (t.__setitem__(3, copy.deepcopy(t[3])), b),
            lambda t, b: (t.__setitem__(2, Rotator(0.7)), OTHER[b]),
        ],
        ids=["replaced", "appended", "value-equal-copy", "other-basis"],
    )
    def test_a_new_train_or_basis_recomputes(self, basis, mueller_rows, edit):
        # a new train recomputes under either tag; a new basis tag alone does not
        # (test_switch_of_basis_hits), so other-basis edits the train as well
        train = readme()
        mueller_of_train(train, basis)
        new_basis = edit(train, basis)[1]
        got = mueller_of_train(train, new_basis)
        assert repr(got.tolist()) == repr(memo_free_mueller(train).tolist())
        assert len(mueller_rows) == 2
        for tag in BASES:
            assert repr(mueller_of_train(train, tag).tolist()) == repr(got.tolist())
        assert len(mueller_rows) == 2  # the new entry keeps the new matrix for both tags

    def test_apply_train_between_calls_keeps_the_matrix(self, basis, folds, mueller_rows):
        train = readme()
        mueller_of_train(train, basis)
        entry = filters._last_fold
        c = coherency_from_stokes(StokesVector(1.0, 0.3, -0.2, 0.4), basis)
        before = apply_train_to_coherency(train, c)
        assert filters._last_fold is entry
        assert repr(mueller_of_train(train, basis).tolist()) == repr(entry[2].tolist())
        assert repr(apply_train_to_coherency(train, c)) == repr(before)
        assert len(folds) == 1 and len(mueller_rows) == 1

    def test_matrix_kept_after_apply_train_folded_the_train(self, basis, folds, mueller_rows):
        train = readme()
        apply_train_to_coherency(train, coherency_from_stokes(StokesVector(1.0, 0, 0, 0), basis))
        assert kept() is None
        folded = filters._last_fold[1]
        mueller_of_train(train, basis)
        assert filters._last_fold[:2] == (tuple(train), folded)
        assert filters._last_fold[1] is folded and kept() is not None
        mueller_of_train(train, basis)
        assert len(folds) == 1 and len(mueller_rows) == 1

    def test_extinct_train_raises_on_every_call_and_keeps_nothing(self, basis, mueller_rows):
        train = [Attenuator(400.0, 400.0)]  # M00 underflows
        for i in range(3):
            with pytest.raises(ExtinctionError):
                mueller_of_train(train, basis)
            assert filters._last_fold[0] == tuple(train) and kept() is None
            assert len(mueller_rows) == i + 1

    def test_entry_replaced_during_the_build_is_left_alone(self, basis, monkeypatch):
        # another train folded while the matrix is built (a concurrent sweep): the matrix goes
        # to the caller, and the other train's entry is not given it
        train, other = readme(), [HalfWave(0.3), Rotator(0.2)]

        def interleaved(*f):
            _train_product(other)
            return _mueller_rows(*f)

        monkeypatch.setattr(partial, "_mueller_rows", interleaved)
        got = mueller_of_train(train, basis)
        assert repr(got.tolist()) == repr(memo_free_mueller(train).tolist())
        assert filters._last_fold[0] == tuple(other) and kept() is None

    @pytest.mark.parametrize("other_asked", [False, True], ids=["bare", "with-matrix"])
    def test_entry_replaced_before_it_is_read_is_left_alone(self, basis, monkeypatch,
                                                            other_asked):
        # another train's entry stored between the fold and the read of the entry: it is
        # neither read for its matrix nor given this train's
        train, other = readme(), [HalfWave(0.3), Rotator(0.2)]
        (mueller_of_train if other_asked else product)(other, basis)
        other_entry = filters._last_fold
        assert (kept() is None) != other_asked

        def interleaved(train):
            folded = _train_product(train)
            filters._last_fold = other_entry
            return folded

        monkeypatch.setattr(partial, "_train_product", interleaved)
        got = mueller_of_train(train, basis)
        assert repr(got.tolist()) == repr(memo_free_mueller(train).tolist())
        assert filters._last_fold is other_entry


class TestTrainCalls:
    def test_calls_share_the_entry_and_build_fresh_results(self, folds):
        train = readme()
        c = coherency_from_stokes(StokesVector(1.0, 0.0, 0.0, 0.5))
        first = apply_train_to_coherency(train, c)
        mm = mueller_of_train(train)
        again = apply_train_to_coherency(train, c)
        assert len(folds) == 1
        assert again is not first and repr(again) == repr(first)
        mm[:] = 7.0  # the caller's array: the next call is built anew
        fresh = mueller_of_train(train)
        assert fresh is not mm and fresh.flags.writeable
        np.testing.assert_array_equal(fresh, mueller_of_train(copy.deepcopy(train)))

    def test_keeps_the_last_train_alive_until_another_is_folded(self):
        train = [HalfWave(0.4), Rotator(0.2)]
        ref = weakref.ref(train[0])
        mueller_of_train(train)
        del train
        gc.collect()
        assert ref() is not None
        mueller_of_train([Rotator(0.3)])
        gc.collect()
        assert ref() is None

    def test_concurrent_sweeps_over_different_trains(self):
        # more threads than cores, switching often: a hit must never return another train's
        # product, whichever thread replaced the entry between its check and its store
        trains = [readme(), [QuarterWave(0.2), Attenuator(0.1, 0.4), Rotator(1.1)],
                  readme()[::-1], [HalfWave(0.3)]]
        c = coherency_from_stokes(StokesVector(1.0, 0.3, -0.2, 0.4))
        want = [(repr(mueller_of_train(copy.deepcopy(t)).tolist()),
                 repr(apply_train_to_coherency(copy.deepcopy(t), c))) for t in trains]
        bad = []

        def sweep(i):
            for _ in range(300):
                got = (repr(mueller_of_train(trains[i]).tolist()),
                       repr(apply_train_to_coherency(trains[i], c)))
                if got != want[i]:
                    bad.append(i)

        threads = [threading.Thread(target=sweep, args=(i % 4,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and bad == []


@pytest.mark.parametrize("basis", BASES)
def test_ten_thousand_elements_mueller_train_and_steps_agree(basis):
    """Mueller x s_in == train == element-by-element propagation on a seeded 10^4-element
    train of weak attenuators and unitary elements, on a memo miss and on a hit."""
    n = 10_000
    text = long_train_text(np.random.default_rng(10_000), per_kind=n // 6 + 1)
    train = list(parse_train(text).document.elements)[:n]
    s_in = StokesVector(2.0, 0.6, -0.9, 0.5)
    c_in = coherency_from_stokes(s_in, basis)
    c = c_in
    for e in train:
        c = apply_filter_to_coherency(e, c)
    steps = stokes_from_coherency(c).as_array()
    tol = n * 1e-13 * steps[0]  # the s0 that comes out: about 6e-8 of the s0 that goes in

    def via_mueller():
        return apply_mueller(mueller_of_train(train, basis), s_in).as_array()

    def via_train():
        return stokes_from_coherency(apply_train_to_coherency(train, c_in)).as_array()

    runs = []
    for first, second in ((via_mueller, via_train), (via_train, via_mueller)):
        filters._last_fold = None
        runs.append({first: first(), second: second()})  # a miss, then a hit
        assert filters._last_fold[0] == tuple(train)
    for run in runs:
        for got in run.values():
            np.testing.assert_allclose(got, steps, rtol=0, atol=tol)
    for call in (via_mueller, via_train):
        assert repr(runs[0][call].tolist()) == repr(runs[1][call].tolist())
    assert 0.0 < steps[0] < 1e-6 * s_in.s0
