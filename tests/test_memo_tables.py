"""Inventory of the library's module-level memo tables.

Every table is pinned by name with its ``maxsize`` (None is unbounded), so
a change that adds a table or lifts a bound has to change this list too.
"""

import importlib
import pkgutil

import planarhopf

PINNED = {
    "planarhopf.coactions._eulerian_basis": None,
    "planarhopf.coactions._leftbracket_basis": None,
    "planarhopf.deformed._act_prim_on_tree": None,
    "planarhopf.deformed._delta_plus_terms": None,
    "planarhopf.deformed._dgraft_into_subtree": None,
    "planarhopf.deformed.go_act": None,
    "planarhopf.enumeration._compositions": None,
    "planarhopf.enumeration.nonplanar_trees": None,
    "planarhopf.enumeration.pb_trees": None,
    "planarhopf.enumeration.planar_forests": None,
    "planarhopf.enumeration.planar_trees": None,
    "planarhopf.enumeration.typed_trees": None,
    "planarhopf.negative._delta_minus_terms": None,
    "planarhopf.negative._go_insert": None,
    "planarhopf.negative._shape_moves": 1024,
    "planarhopf.postlie._antipode_basis": None,
    "planarhopf.postlie._go_word_on_tree": None,
    "planarhopf.postlie._shuffle_words": None,
    "planarhopf.postlie._tree_cut_table": 512,
    "planarhopf.trees._tree_regularity": None,
}


def memo_tables() -> dict:
    """{name: maxsize} over the distinct memo tables of all modules.

    A table imported into several modules counts once, under the module
    that defines its function if that module holds it, else under its
    first alias in sorted order.
    """
    aliases = {}
    for info in pkgutil.iter_modules(planarhopf.__path__):
        module = importlib.import_module(f"planarhopf.{info.name}")
        for attr, value in vars(module).items():
            if callable(getattr(value, "cache_info", None)):
                aliases.setdefault(id(value), (value, set()))[1].add(
                    f"{module.__name__}.{attr}")
    out = {}
    for table, names in aliases.values():
        home = f"{table.__module__}.{table.__name__}"
        out[home if home in names else min(names)] = table.cache_info().maxsize
    return out


def test_memo_tables_are_pinned():
    assert memo_tables() == PINNED
