import sys
from functools import lru_cache
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest

from planarhopf.suites import run_suite
from planarhopf.trees import (EdgeType, MultiIndex, PlanarTree,
                              RegularityConfig)


def pytest_sessionfinish(session, exitstatus):
    """Empty the library's memo tables once the tests are done: a full run
    leaves millions of objects in them, and freeing those at
    interpreter exit takes longer than clearing them here."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "planarhopf":
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@lru_cache(maxsize=None)
def suite_results(name):
    """One run of a named suite at the default config and seed 0, shared by
    every test that reads it: {check name: CheckResult}."""
    return {r.name: r for r in run_suite(name)}


def suite_check(name):
    """The cached result of one suite check, e.g. ``hopf.gl_mkw_duality``."""
    return suite_results(name.split(".")[0])[name]


def mi(*comps):
    return MultiIndex(comps)


def K(idx, which=1):
    return EdgeType("K", which, MultiIndex((idx,)))


def X(idx, which=1):
    return EdgeType("X", which, MultiIndex((idx,)))


def T(dec, *kids):
    return PlanarTree(MultiIndex((dec,)), tuple(kids))


@pytest.fixture
def cfg_pb():
    """Plain-mode grading with all path regularities just under 1/2."""
    return RegularityConfig(d=1, alphas={1: "49/100", 2: "49/100", 3: "49/100",
                                         4: "49/100"}, betas={}, truncation=6)


def typed_cfg(d):
    """Typed-mode grading in dimension d: rough noises, a smoothing kernel."""
    return RegularityConfig(d=d, alphas={1: "-5/8", 2: "-5/8"},
                            betas={1: "1/2", 2: "1/2", 3: "1/2"}, truncation=8)


@pytest.fixture
def cfg_typed():
    return typed_cfg(1)
