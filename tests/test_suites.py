"""Every named suite passes end to end, ``suite all`` keeps its output, and
the registry declares each check once with a sample of its own.

Each suite runs once per session, through ``conftest.suite_results``.
"""

import functools
import inspect

import pytest

from conftest import suite_results
from planarhopf import suites
from planarhopf.suites import SUITES, UnknownSuite, run_suite

# (check name, detail) of ``planarhopf suite all --seed 0``, in report order
SUITE_ALL_SEED_0 = [
    ('coactions.counit', 'all 2-letter forests <= 3 vertices'),
    ('coactions.nonplanar', 'oracle counts frozen: 5 and 8'),
    ('coactions.partition_validator', '15394 blocks of all 2-letter forests <= 4 vertices'),
    ('coactions.projection_primitivity',
     'both normalizations primitive on all 2-letter forests <= 4 vertices'),
    ('coactions.spanning_restriction', 'forests <= 3 vertices'),
    ('cointeraction.chu_vandermonde', '702 profiles'),
    ('cointeraction.time_cotranslation', 'exhaustive <= 5 vertices; passing: eulerian'),
    ('cointeraction.typed_sample', 'seeded 3- and 4-edge sample, extended identity'),
    ('cointeraction.typed_small', '178 trees <= 2 edges'),
    ('cointeraction.worked_instance', 'two-noise instance, cap 2'),
    ('deformed.almost_derivation', '120 planted pairs'),
    ('deformed.degenerate_star_plus', '40 product pairs'),
    ('deformed.degeneration', '45 common-subspace trees, byte-identical'),
    ('deformed.duality_forward', '1797 coproduct terms vs products'),
    ('deformed.duality_reverse', '180 products vs coproducts'),
    ('deformed.grading_drop', '60 random trees'),
    ('deformed.polynomial_commutation', '120 normal-form products'),
    ('golden.cosubstitution_skeleton', '10 expanded terms'),
    ('golden.decoration_raising', 'binomial split'),
    ('golden.embedding_sum', '4 terms'),
    ('golden.left_grafting', '3 terms'),
    ('golden.mkw_coproduct', '7 families / 10 basis terms'),
    ('golden.recentering_display', '16 basis terms, both routes equal'),
    ('golden.renormalisation_display', '8 displayed + unit + forced triple family'),
    ('golden.root_adding_bijection', 'round trip'),
    ('golden.spanning_partitions', '8 partitions'),
    ('hopf.antipode', 'convolution inverse on 200 forests'),
    ('hopf.embedding_is_morphism', 'trees <= 4 vertices, 2 letters'),
    ('hopf.gl_associativity', '120 triples'),
    ('hopf.gl_mkw_duality', '155177 exhaustive triples'),
    ('hopf.mkw_coassociativity', 'all 2-letter forests <= 5 vertices'),
    ('hopf.mkw_shuffle_morphism', '60 pairs'),
    ('model.axioms', '59 trees'),
    ('model.character_property', '40 shuffle pairs'),
    ('model.chen_identity', '6 random rational triples'),
    ('model.edges_are_integration', 'symbolic identity on all table forests'),
    ('model.renormalised_axioms', '59 trees, single-tree character'),
    ('negative.extended_grading', '40 trees'),
    ('negative.insertion_as_product', '60 instances, direct vs product route'),
    ('negative.multi_insertion', '20 monomials, pairing vs recursion'),
    ('negative.pre_lie', '30 triples, both insertions'),
    ('negative.star_minus', 'unit and 10 associativity triples'),
    ('postlie.associator', '250 associator instances'),
    ('postlie.bracket_derivation', '250 derivation instances'),
    ('postlie.deformed_axioms', '260 deformed instances'),
    ('rough.coproduct_dual_routes', 'image trees <= 3 edges'),
    ('rough.degree_additivity', '40 products'),
    ('rough.iso_roundtrip', '60 round trips'),
    ('rough.tree_product', 'unit and shuffle counts'),
]


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    failures = [r.line() for r in suite_results(name).values() if not r.ok]
    assert not failures, "\n".join(failures)


def test_suite_all_output_is_pinned(monkeypatch):
    monkeypatch.setattr(suites, "run_suite",
                        lambda name, cfg=None, seed=0: list(suite_results(name).values()))
    assert [(r.name, r.detail) for r in suites.run_all()] == SUITE_ALL_SEED_0


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("nonsense")


def _first_draws(monkeypatch, widen=None):
    """{check name: the first draw of the rng its domain builder receives},
    over every suite at seed 0, each body replaced by a stub; the builder
    of the check ``widen`` first draws 1,000 more, as a wider sample would."""
    seen, table = {}, {}
    for suite, (cfg, checks) in SUITES.items():
        table[suite] = (cfg, [])
        for fn, build, *label in checks:
            name = label[0] if label else fn.__name__.replace("_", ".", 1)

            def spy(cfg, rng, name=name):
                if name == widen:
                    for _ in range(1000):
                        rng.random()
                seen[name] = rng.random()
                return ()

            table[suite][1].append((functools.wraps(fn)(lambda *args: ""), spy, *label))
    monkeypatch.setattr(suites, "SUITES", table)
    suites.run_all()
    return seen


def test_each_check_samples_from_its_own_rng(monkeypatch):
    base = _first_draws(monkeypatch)
    assert len(base) == len(SUITE_ALL_SEED_0)
    assert len(set(base.values())) == len(base)  # no two checks share a stream
    for widen in ("postlie.associator", "hopf.gl_associativity", "negative.pre_lie"):
        widened = _first_draws(monkeypatch, widen)
        assert widened.pop(widen) != base[widen]
        assert widened == {k: v for k, v in base.items() if k != widen}, widen


def test_every_check_body_is_registered_once_in_its_suite():
    registered = [(suite, fn) for suite, (_, checks) in SUITES.items()
                  for fn, _, *label in checks if not label]
    assert all(fn.__name__.startswith(suite + "_") for suite, fn in registered)
    bodies = {fn for name, fn in inspect.getmembers(suites, inspect.isfunction)
              if fn.__module__ == suites.__name__
              and name.split("_")[0] in SUITES}
    assert sorted(fn.__name__ for _, fn in registered) == \
        sorted(fn.__name__ for fn in bodies)
