"""Every named suite passes end to end, ``suite all`` keeps its output, and
the registry declares each check once, its domain a function of the config.

Each suite runs once per session, through ``conftest.suite_results``.
"""

import inspect

import pytest

from conftest import suite_results
from planarhopf import suites
from planarhopf.suites import SUITES, UnknownSuite, run_suite

# (check name, detail) of ``planarhopf suite all``, in report order
SUITE_ALL = [
    ('coactions.counit', 'all 2-letter forests <= 3 vertices'),
    ('coactions.nonplanar', 'oracle counts frozen: 5 and 8'),
    ('coactions.partition_validator', '15394 blocks of all 2-letter forests <= 4 vertices'),
    ('coactions.projection_primitivity',
     'both normalizations primitive on all 2-letter forests <= 4 vertices'),
    ('coactions.spanning_restriction', 'forests <= 3 vertices'),
    ('cointeraction.chu_vandermonde', '702 profiles'),
    ('cointeraction.time_cotranslation', 'exhaustive <= 5 vertices; passing: eulerian'),
    ('cointeraction.typed_sample', '51 strided 3- and 4-edge trees, extended identity'),
    ('cointeraction.typed_small', '178 trees <= 2 edges'),
    ('cointeraction.worked_instance', 'two-noise instance, cap 2'),
    ('deformed.almost_derivation', '3303 planted pairs'),
    ('deformed.degenerate_star_plus', '40 product pairs'),
    ('deformed.degeneration', '45 common-subspace trees, byte-identical'),
    ('deformed.duality_forward', '1797 coproduct terms vs products'),
    ('deformed.duality_reverse', '180 products vs coproducts'),
    ('deformed.grading_drop', '282 trees'),
    ('deformed.polynomial_commutation', '3903 normal-form products'),
    ('golden.cosubstitution_skeleton', '10 expanded terms'),
    ('golden.decoration_raising', 'binomial split'),
    ('golden.embedding_sum', '4 terms'),
    ('golden.left_grafting', '3 terms'),
    ('golden.mkw_coproduct', '7 families / 10 basis terms'),
    ('golden.recentering_display', '16 basis terms, both routes equal'),
    ('golden.renormalisation_display', '8 displayed + unit + forced triple family'),
    ('golden.root_adding_bijection', 'round trip'),
    ('golden.spanning_partitions', '8 partitions'),
    ('hopf.antipode', 'convolution inverse on 275 forests'),
    ('hopf.embedding_is_morphism', 'trees <= 4 vertices, 2 letters'),
    ('hopf.gl_associativity', '3819 triples'),
    ('hopf.gl_mkw_duality', '155177 exhaustive triples'),
    ('hopf.mkw_coassociativity', 'all 2-letter forests <= 5 vertices'),
    ('hopf.mkw_shuffle_morphism', '809 pairs'),
    ('model.axioms', '59 trees'),
    ('model.character_property', '809 shuffle pairs'),
    ('model.chen_identity', '6 rational triples'),
    ('model.edges_are_integration', 'symbolic identity on all table forests'),
    ('model.renormalised_axioms', '59 trees, single-tree character'),
    ('negative.extended_grading', '282 trees'),
    ('negative.insertion_as_product', '964 instances, direct vs product route'),
    ('negative.multi_insertion', '482 monomials, pairing vs recursion'),
    ('negative.pre_lie', '764 triples, both insertions'),
    ('negative.star_minus', 'unit on 676 monomials and 512 associativity triples'),
    ('postlie.associator', '2136 associator instances'),
    ('postlie.bracket_derivation', '8280 derivation instances'),
    ('postlie.deformed_axioms', '757 deformed instances'),
    ('rough.coproduct_dual_routes', 'image trees <= 3 edges'),
    ('rough.degree_additivity', '1312 products'),
    ('rough.iso_roundtrip', '1291 round trips'),
    ('rough.tree_product', 'unit and shuffle counts'),
]


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    failures = [r.line() for r in suite_results(name).values() if not r.ok]
    assert not failures, "\n".join(failures)


def test_suite_all_output_is_pinned(monkeypatch):
    monkeypatch.setattr(suites, "run_suite",
                        lambda name, cfg=None: list(suite_results(name).values()))
    assert [(r.name, r.detail) for r in suites.run_all()] == SUITE_ALL


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("nonsense")


def test_every_builder_reads_only_the_config():
    # a check's domain is a function of the config alone: no seed, no rng
    for _, checks in SUITES.values():
        for fn, build, *_ in checks:
            assert list(inspect.signature(build).parameters) == ["cfg"], fn.__name__


def test_every_check_body_is_registered_once_in_its_suite():
    registered = [(suite, fn) for suite, (_, checks) in SUITES.items()
                  for fn, _, *label in checks if not label]
    assert all(fn.__name__.startswith(suite + "_") for suite, fn in registered)
    bodies = {fn for name, fn in inspect.getmembers(suites, inspect.isfunction)
              if fn.__module__ == suites.__name__
              and name.split("_")[0] in SUITES}
    assert sorted(fn.__name__ for _, fn in registered) == \
        sorted(fn.__name__ for fn in bodies)
