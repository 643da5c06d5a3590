"""Deterministic call counts of the score methods and of one SSVGD round.

Under ``sys.setprofile`` every Python call and every C call made from a
frame of a ``steinlab`` source file is counted.  The counts do not depend
on timing or on the host, so they pin the per-call overhead of the layers
that run once per point block, per SGLD step and per SSVGD round.  Each
count is an upper bound: a change may lower it, and then lowers the pin,
but may not raise it.  Python calls include calls into numpy's Python
functions and the package's own lambdas; C calls are builtin functions and
methods called directly (a ufunc call or an operator is not one).
"""

import os
import sys

import numpy as np

import steinlab
from steinlab import (
    KernelSpec,
    SvgdConfig,
    gen_gmm_data,
    iid_gaussian,
    make_gaussian,
    make_gmm_posterior,
    run_ssvgd,
)
from steinlab.rng import make_generator, uniform_subsets

PACKAGE_DIR = os.path.dirname(os.path.abspath(steinlab.__file__)) + os.sep


def call_counts(fn):
    """(Python calls, C calls) made from steinlab frames during ``fn()``,
    after one unprofiled warm-up call that fills every cache."""
    counts = [0, 0]

    def profile(frame, event, arg):
        if event == "call":
            caller = frame.f_back
            if caller is not None and caller.f_code.co_filename.startswith(PACKAGE_DIR):
                counts[0] += 1
        elif event == "c_call" and frame.f_code.co_filename.startswith(PACKAGE_DIR):
            counts[1] += 1

    fn()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return tuple(counts)


def assert_at_most(counts, pinned):
    # A count of zero would mean the profile saw no steinlab frame at all.
    assert all(0 < c <= p for c, p in zip(counts, pinned)), (counts, pinned)


def _gaussian_case():
    target = make_gaussian(0.0, 1.0, 20)
    X = iid_gaussian(50, 1, 0.0, 1.0, seed=1).points
    return target, X, uniform_subsets(make_generator(2), 50, 20, 5)


class TestScoreMethods:
    def test_grad_log_subset(self):
        target, X, subsets = _gaussian_case()
        assert_at_most(call_counts(lambda: target.grad_log_subset(subsets, X)), (7, 13))

    def test_grad_log_full(self):
        target, X, _ = _gaussian_case()
        assert_at_most(call_counts(lambda: target.grad_log_full(X)), (7, 10))

    def test_grad_log_terms(self):
        # One SGLD step of a 6-chain sweep with minibatches of 10 terms.
        target = make_gmm_posterior(gen_gmm_data(0.0, 1.0, 2.0, 100, seed=3))
        TH = iid_gaussian(6, 2, 0.0, 1.0, seed=4).points
        indices = uniform_subsets(make_generator(5), 6, 100, 10)
        assert_at_most(call_counts(lambda: target.grad_log_terms(indices, TH)), (6, 12))


class TestSsvgdRound:
    def test_hundred_rounds(self):
        # 200 rounds less 100 rounds: the per-round calls, with the chunked
        # subset draws (one per 32 rounds here) spread over the rounds.
        target = make_gaussian(0.0, 1.0, 20)
        init = iid_gaussian(50, 1, 0.0, 1.0, seed=6)

        def rounds(count):
            config = SvgdConfig(rounds=count, batch=5, kernel=KernelSpec("rbf"),
                                bandwidth_policy="median_per_round", seed=7)
            return call_counts(lambda: run_ssvgd(init, target, config))

        short, long = rounds(100), rounds(200)
        assert_at_most(np.subtract(long, short), (3012, 3254))
