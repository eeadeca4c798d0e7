"""The enumeration order of every tree family, pinned by digest.

Strided domains depend on this order: suite checks and tests take odd
strides of the per-size enumerations, ``typed_trees``, ``planar_forests`` and
``typed_trees_up_to``. Each entry below is the
SHA-256 (first 10 hex digits) of the keys of one sequence, one digest per
size from -1 (no trees) up, so any change of order, content or
multiplicity shows.
"""

import hashlib

import pytest

from planarhopf.enumeration import (forests_up_to, nonplanar_trees, pb_trees,
                                    pb_trees_up_to, planar_forests,
                                    planar_trees, typed_trees,
                                    typed_trees_up_to)
from planarhopf.trees import forest_key

LABELS = {"a": ("a",), "ab": ("a", "b"), "012": ("0", "1", "2"),
          "a7o": ("a", "7", None)}
TYPED = {"d1": (1, 1, 1, 1, 1), "bare": (1, 0, 1, 1, 1),
         "dec2": (1, 2, 1, 1, 2), "k2x2": (1, 1, 2, 2, 0),
         "d2bare": (2, 0, 1, 1, 1), "d2": (2, 1, 1, 1, 1)}


def _grid():
    """{name: (the sequence of a given size, the largest size pinned)}."""
    grid = {}
    for name, labels in LABELS.items():
        grid[f"planar_trees-{name}"] = (lambda n, L=labels: planar_trees(n, L), 5)
        grid[f"planar_forests-{name}"] = (lambda n, L=labels: planar_forests(n, L), 5)
        grid[f"forests_up_to-{name}"] = (lambda n, L=labels: forests_up_to(n, L), 5)
        grid[f"nonplanar_trees-{name}"] = (lambda n, L=labels: nonplanar_trees(n, L), 5)
    for n_labels in range(4):
        grid[f"pb_trees-{n_labels}"] = (lambda n, k=n_labels: pb_trees(n, k), 5)
        grid[f"pb_trees_up_to-{n_labels}"] = (
            lambda n, k=n_labels: pb_trees_up_to(n, k), 5)
    for name, params in TYPED.items():
        top = 3 if params[0] == 1 else 2
        grid[f"typed_trees-{name}"] = (lambda n, p=params: typed_trees(n, *p), top)
        grid[f"typed_trees_up_to-{name}"] = (
            lambda n, p=params: typed_trees_up_to(n, *p), top)
    grid["typed_trees_up_to-defaults"] = (typed_trees_up_to, 3)
    return grid


GRID = _grid()


def _digest(seq) -> str:
    keys = (forest_key(x) if isinstance(x, tuple) else x.key() for x in seq)
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()[:10]


def digests(name: str) -> str:
    build, top = GRID[name]
    return " ".join(_digest(build(n)) for n in range(-1, top + 1))


PINNED = {
    "forests_up_to-012":
        "e3b0c44298 44136fa355 716763bb03 a2601321b6 92b3552055 6f6e0639db 8df178ef04",
    "forests_up_to-a":
        "e3b0c44298 44136fa355 96f81ec0ec f9bb58443a 06bfe58726 3c95bf2775 b71f274c48",
    "forests_up_to-a7o":
        "e3b0c44298 44136fa355 8b43a48aa3 034ef9c2d0 30cbc3e656 34e96a01a7 6da69a5eff",
    "forests_up_to-ab":
        "e3b0c44298 44136fa355 0811b7daf6 eb4a7435fe bb0883051c d519738eb3 64449095ce",
    "nonplanar_trees-012":
        "e3b0c44298 e3b0c44298 c4276dce1d 4cdb5bf3fb 9937d6abfc 99ab4e919b 886cdc16d0",
    "nonplanar_trees-a":
        "e3b0c44298 e3b0c44298 ca978112ca 7f992069ef 1ab06bfd84 61ae5a6748 05d6d72feb",
    "nonplanar_trees-a7o":
        "e3b0c44298 e3b0c44298 37e1692223 19d34bfc2a f5c52c7420 f6eff63303 1d9551d844",
    "nonplanar_trees-ab":
        "e3b0c44298 e3b0c44298 7e18f73731 0079074a04 777df13d76 3c3014dfbc 0b3e5bef30",
    "pb_trees-0":
        "e3b0c44298 65c74c15a6 fb39446104 30f1536792 310f700c98 b62b1b74d3 2f91033147",
    "pb_trees-1":
        "e3b0c44298 65c74c15a6 6f0a8e8ac9 b89cb51b9e 044e13e6e4 d93a970dac 57ac80d7a9",
    "pb_trees-2":
        "e3b0c44298 65c74c15a6 d665e1dcf8 842b38d575 26252b2167 404786326e 1c5e6afda1",
    "pb_trees-3":
        "e3b0c44298 65c74c15a6 365d74377e c34e30d595 7d63222312 d3692c0f3c 8b3d6165b5",
    "pb_trees_up_to-0":
        "e3b0c44298 65c74c15a6 64906c181a 0fbe982290 80b9255225 cdc071140f 196a8135c7",
    "pb_trees_up_to-1":
        "e3b0c44298 65c74c15a6 3e3ebcac3b ff41b08251 fdc28d788e cd624500b3 f65fb633ad",
    "pb_trees_up_to-2":
        "e3b0c44298 65c74c15a6 dd890e81c6 2046943482 d282ef3a65 91811da330 a002d6e352",
    "pb_trees_up_to-3":
        "e3b0c44298 65c74c15a6 52be5cf4e6 eea4fe06e8 1d348362ca 00ff9b5749 f4f8700120",
    "planar_forests-012":
        "e3b0c44298 44136fa355 690e743da7 f5521d9199 62c715bdee 7513632fda 47a5d14063",
    "planar_forests-a":
        "e3b0c44298 44136fa355 460c3a9321 db2feb6e17 370d56e34f 4e445906cc d350a29236",
    "planar_forests-a7o":
        "e3b0c44298 44136fa355 c29d0e98a9 fcd2f0babf 86dc42f8d2 74f572c15e 930091eb79",
    "planar_forests-ab":
        "e3b0c44298 44136fa355 022a4174fd e573208bfd d125c46f19 a8d0124253 6f1a7d0c24",
    "planar_trees-012":
        "e3b0c44298 e3b0c44298 c4276dce1d 4cdb5bf3fb f0d32ed5be 582966d41a d2d3092f91",
    "planar_trees-a":
        "e3b0c44298 e3b0c44298 ca978112ca 7f992069ef 1ab06bfd84 c7a17549b3 9acef0d901",
    "planar_trees-a7o":
        "e3b0c44298 e3b0c44298 b0a4e65701 7eeff9398d 2cdd80b999 4a4b3b4bb6 f545fc45f3",
    "planar_trees-ab":
        "e3b0c44298 e3b0c44298 7e18f73731 0079074a04 54d4f32880 b5ab8b0e17 094d530a80",
    "typed_trees-bare":
        "e3b0c44298 5feceb66ff bfe1ad2efa edc704bef5 0b89d1fb2a",
    "typed_trees-d1":
        "e3b0c44298 1e9987e996 60f9ed578e 966ca8edea d8d641ff9b",
    "typed_trees-d2":
        "e3b0c44298 32e2c2a2a3 8f7708ff11 440e4912c0",
    "typed_trees-d2bare":
        "e3b0c44298 a2c508f756 5a0d361e49 7173036e58",
    "typed_trees-dec2":
        "e3b0c44298 c4276dce1d bdfd307ec3 b0f4cf7633 6f9f1aa167",
    "typed_trees-k2x2":
        "e3b0c44298 1e9987e996 9c8380f98b c701750b08 cc8e9e8ca9",
    "typed_trees_up_to-bare":
        "e3b0c44298 5feceb66ff ed7b01cab9 9caf1daa77 70a1712f85",
    "typed_trees_up_to-d1":
        "e3b0c44298 1e9987e996 f7f9c48719 563bd254e8 42a437a7f8",
    "typed_trees_up_to-d2":
        "e3b0c44298 32e2c2a2a3 c447b6da99 8e8ab1c0d3",
    "typed_trees_up_to-d2bare":
        "e3b0c44298 a2c508f756 23cd26d01b fe2bdad113",
    "typed_trees_up_to-dec2":
        "e3b0c44298 c4276dce1d 176bb29dc0 3a72a64b1a 9329be0d65",
    "typed_trees_up_to-defaults":
        "e3b0c44298 1e9987e996 f7f9c48719 563bd254e8 42a437a7f8",
    "typed_trees_up_to-k2x2":
        "e3b0c44298 1e9987e996 dfa17f0ef9 084a9c0fbe 97dbadd169",
}


@pytest.mark.parametrize("name", sorted(GRID))
def test_enumeration_order_is_pinned(name):
    assert digests(name) == PINNED[name]


def test_the_pin_covers_the_grid():
    assert sorted(PINNED) == sorted(GRID)
