import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest

from planarhopf.trees import (EdgeType, MultiIndex, PlanarTree,
                              RegularityConfig)


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
