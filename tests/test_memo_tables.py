"""Inventory of the library's module-level memo tables.

Every table is pinned by name with its ``maxsize`` (None is unbounded), so
a change that adds a table or lifts a bound has to change this list too.
The one other module-level table, the planar-tree intern table, is pinned
as weak: it is bounded by the number of live trees and never goes stale.
"""

import gc
import importlib
import pkgutil
import weakref

import planarhopf
from planarhopf.trees import NonplanarTree, lt

PINNED = {
    "planarhopf.coactions._projection": None,
    "planarhopf.coactions._rho": 256,
    "planarhopf.deformed._act_prim_on_tree": None,
    "planarhopf.deformed._delta_plus_terms": None,
    "planarhopf.deformed._dgraft_into_subtree": None,
    "planarhopf.deformed.go_act": None,
    "planarhopf.negative._delta_minus_terms": None,
    "planarhopf.negative._insert_into_monomial": 512,
    "planarhopf.negative._shape_moves": 1024,
    "planarhopf.postlie._antipode_basis": None,
    "planarhopf.postlie._go_word_on_forest": 512,
    "planarhopf.postlie._go_word_on_tree": None,
    "planarhopf.postlie._shuffle_words": None,
    "planarhopf.postlie._tree_coproduct": 1024,
    "planarhopf.trees._tree_regularity": None,
}


def library_globals():
    """(qualified name, value) over the globals of every library module."""
    for info in pkgutil.iter_modules(planarhopf.__path__):
        module = importlib.import_module(f"planarhopf.{info.name}")
        for attr, value in vars(module).items():
            yield f"{module.__name__}.{attr}", value


def memo_tables() -> dict:
    """{name: maxsize} over the distinct memo tables of all modules.

    A table imported into several modules counts once, under the module
    that defines its function if that module holds it, else under its
    first alias in sorted order.
    """
    aliases = {}
    for name, value in library_globals():
        if callable(getattr(value, "cache_info", None)):
            aliases.setdefault(id(value), (value, set()))[1].add(name)
    out = {}
    for table, names in aliases.values():
        home = f"{table.__module__}.{table.__name__}"
        out[home if home in names else min(names)] = table.cache_info().maxsize
    return out


def test_memo_tables_are_pinned():
    assert memo_tables() == PINNED


def test_the_intern_table_is_the_one_weak_table():
    alive = lt("a", lt("b"))
    weak = {name: value for name, value in library_globals()
            if isinstance(value, (weakref.WeakValueDictionary,
                                  weakref.WeakKeyDictionary, weakref.WeakSet))
            or isinstance(value, dict)
            and any(isinstance(v, weakref.ref) for v in value.values())}
    assert list(weak) == ["planarhopf.trees._INTERNED"]
    gc.collect()
    table = weak["planarhopf.trees._INTERNED"]
    assert table[(alive.dec, alive.children, alive.ext)]() is alive
    for key, ref in list(table.items()):
        assert isinstance(ref, weakref.ref)
        t = ref()  # every entry is a live tree, filed under its own value
        assert t is not None
        if type(t) is NonplanarTree:  # under its child trees and its class
            assert (t.dec, tuple(c for _, c in t.children), NonplanarTree) == key
        else:
            assert (t.dec, t.children, t.ext) == key
