"""The benchmark's four workloads, driven through the library's public API.

Each workload builds its inputs from a seed and a pass index, then runs a
fixed list of ops.  An op checks one input through every identity the
workload applies to it (or serves one eval request, or is one suite check)
and returns ``(ok, outputs)``; the outputs are fingerprinted outside the
timed region.  Every call into a library module goes through the tracer, so
a traced pass records a span per call.

planar-sweep   exhaustive: GL/MKW duality both ways and the antipode
               convolution over all 2-letter forests with <= 5 vertices, the
               eulerian time-cotranslation cointeraction over all 1-letter
               forests with <= 5 vertices.  postlie/coactions do the work.
typed-sweep    stratified seeded samples of the d = 1 typed pool (<= 3 edges)
               and of the d = 2 pool (<= 2 edges) through the truncated and
               extended cointeractions, Delta+_0/star+ duality and Delta-
               negativity; plus the degeneration onto the edge-labelled
               coproducts for every edge-labelled tree with <= 3 edges.
               negative/deformed/trees do the work, postlie/coactions idle.
eval-stream    distinct small ``planarhopf eval`` requests, a fresh Session
               each, rendered in rotating formats; a fixed share malformed.
suite-all      ``planarhopf suite all --seed 0`` in-process.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import operator
import os
import random
import time

from bench_stats import calibrate
from planarhopf import (cli, coactions, deformed, enumeration, grammar, negative,
                        postlie, rough, suites)
from planarhopf.linalg import LinComb, Multiset, Tensor
from planarhopf.trees import MultiIndex, RegularityConfig, TreeError, regularity

HERE = os.path.dirname(os.path.abspath(__file__))
STRATA = os.path.join(HERE, "data", "strata.json")


class Workload:
    """A pass: ``setup()`` builds ``self.ops``; ``timed(record)`` runs them."""

    name = ""

    def __init__(self, tracer, seed: int, pass_index: int = 0):
        self.t = tracer
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}:{pass_index}")
        self.counters = {}
        self.ops = []
        self.calibration = []

    def calibrate(self, times: int = 1) -> None:
        """Time the calibration loop; samples are ``(midpoint, seconds)``."""
        for _ in range(times):
            start = time.perf_counter()
            seconds = calibrate()
            self.calibration.append((start + seconds / 2, seconds))

    def compare(self, lhs, rhs) -> bool:
        """The benchmark's exact comparison of two routes to one value."""
        return self.t.call("linalg.compare", operator.eq, lhs, rhs,
                           terms=len(lhs) + len(rhs))

    def key(self, kind, x) -> str:
        return f"{kind}|{grammar.serialize_basis(x)}"

    def setup_catalog(self) -> None:
        """What ``catalog()`` needs; by default the whole set-up."""
        self.setup()

    def catalog(self) -> list:
        """Every op any seed can produce, for the reference table."""
        raise NotImplementedError

    def timed(self, record) -> None:
        """Run the ops; ``record(key, seconds, ok, outputs, midpoint)`` after
        each.  The timed phase is the sum of the op latencies."""
        for i, (kind, x) in enumerate(self.ops):
            self.t.op = i
            start = time.perf_counter()
            try:
                with self.t.span("op"):
                    ok, outputs = getattr(self, "op_" + kind)(x)
            except Exception as exc:  # an op that raises is a failed op
                ok, outputs = False, [f"{type(exc).__name__}: {exc}"]
            seconds = time.perf_counter() - start
            self.t.op = None
            record(self.key(kind, x), seconds, ok, outputs, start + seconds / 2)


def _stratified(pool, weights, n, fixed, rng) -> list:
    """One pick from each of ``n`` blocks of the pool sorted by weight: the
    middle input of each block whose index is in ``fixed``, a seeded one of
    every other block.

    ``weights`` maps each input's text form to its op time when the reference
    was built, so every sample carries the same mix of cheap and expensive
    inputs and the pass cost hardly depends on the seed.  The fixed blocks are
    those whose ops set ``op_p50_ms`` and ``op_tail_ms``: an op's time in a
    pass scatters around its weight, so with seeded picks there the ten-seed
    spreads of those metrics were 0.14-0.18 and 0.17-0.20."""
    keys = [grammar.serialize_basis(z) for z in pool]
    order = sorted(range(len(pool)), key=lambda i: (weights[keys[i]], keys[i]))
    bounds = [len(order) * k // n for k in range(n + 1)]
    blocks = [order[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    return [pool[block[len(block) // 2] if k in fixed else rng.choice(block)]
            for k, block in enumerate(blocks)]


# ---------------------------------------------------------------------------
# planar-sweep


class PlanarSweep(Workload):
    name = "planar-sweep"

    def setup(self):
        call = self.t.call
        self.two = call("enumeration.forests_up_to", enumeration.forests_up_to,
                        5, ("a", "b"))
        self.one = call("enumeration.forests_up_to", enumeration.forests_up_to,
                        5, ("0",))
        self.ops = sorted(self.catalog(), key=lambda op: self.key(*op))
        self.rng.shuffle(self.ops)

    def catalog(self):
        return ([("duality", w) for w in self.two]
                + [("antipode", w) for w in self.two]
                + [("cotranslation", w) for w in self.one])

    def op_duality(self, w):
        """<gl(x, y), z> = <Delta z, x (x) y>, from the coproduct side on the
        terms of Delta w and from the product side on the deconcatenations
        of w."""
        call = self.t.call
        cop = call("postlie.mkw_coproduct", postlie.mkw_coproduct, LinComb.term(w))
        via_products = LinComb()
        for pair in cop:
            prod = call("postlie.gl_product", postlie.gl_product, pair[0], pair[1])
            via_products.add_term(pair, prod.coefficient(w))
        ok = self.compare(cop, via_products)
        outputs = [cop]
        for i in range(len(w) + 1):
            x, y = w[:i], w[i:]
            prod = call("postlie.gl_product", postlie.gl_product, x, y)
            via_coproducts = LinComb()
            for z in prod:
                dz = call("postlie.mkw_coproduct", postlie.mkw_coproduct,
                          LinComb.term(z))
                via_coproducts.add_term(z, dz.coefficient(Tensor((x, y))))
            ok &= self.compare(prod, via_coproducts)
            outputs.append(prod)
        return ok, outputs

    def op_antipode(self, w):
        """m (S (x) id) Delta w = epsilon(w) 1 under the shuffle product."""
        call = self.t.call
        cop = call("postlie.mkw_coproduct", postlie.mkw_coproduct, LinComb.term(w))
        s_tensor, conv = LinComb(), LinComb()
        for (p, q), c in cop.items():
            sp = call("postlie.antipode", postlie.antipode, LinComb.term(p))
            for s, c2 in sp.items():
                s_tensor.add_term(Tensor((s, q)), c * c2)
            conv.iadd_scaled(call("postlie.shuffle", postlie.shuffle, sp,
                                  LinComb.term(q)), c)
        unit = LinComb.term(()) if not w else LinComb()
        return self.compare(conv, unit), [s_tensor, conv]

    def op_cotranslation(self, w):
        """Cointeraction of eulerian time-cotranslation with the MKW
        coproduct, and every admissible block passing the validator."""
        call = self.t.call
        lhs, rhs = call("coactions.cointeraction_sides",
                        coactions.cointeraction_sides, w, "eulerian")
        ok = self.compare(lhs, rhs)
        parts = call("coactions.admissible_partitions",
                     coactions.admissible_partitions, w, False)
        for part in parts:
            for block in part.blocks:
                ok &= call("coactions.validate_block", coactions.validate_block,
                           w, block)
        return ok, [lhs, len(parts)]


# ---------------------------------------------------------------------------
# typed-sweep


def _edge_indices_within(t, cap) -> bool:
    return all(edge.index.leq(cap) and _edge_indices_within(sub, cap)
               for edge, sub in t.children)


class TypedSweep(Workload):
    name = "typed-sweep"
    # blocks with fixed picks: those around a pass's median op, the heaviest
    D1_SAMPLE, D1_FIXED = 88, {*range(8, 52), *range(72, 88)}   # of 2,354 trees
    D2_SAMPLE, D2_FIXED = 12, {1, 2, 3, 9, 10, 11}              # of the d = 2 catalog
    D2_STRIDE = 8            # d = 2 catalog: every 8th of the 5,252 trees <= 2 edges

    def setup_catalog(self):
        """Enumerate the pools, each sorted by its trees' text form so the
        sample does not depend on the order the library enumerates them in."""
        call = self.t.call
        by_key = lambda trees: sorted(trees, key=grammar.serialize_basis)
        self.cfg1 = suites.NEGATIVE_CFG
        self.cfg2 = dataclasses.replace(suites.NEGATIVE_CFG, d=2)
        self.cap1, self.cap2 = MultiIndex((2,)), MultiIndex((2, 2))
        self.pcfg = RegularityConfig(d=1, alphas={1: "49/100", 2: "49/100"},
                                     betas={}, truncation=8)
        self.dcfg = call("deformed.degenerate_cfg", deformed.degenerate_cfg, self.pcfg)
        self.pool1 = by_key(call("enumeration.typed_trees_up_to",
                                 enumeration.typed_trees_up_to, 3, max_dec=1,
                                 max_edge_dec=1))
        self.pool2 = by_key(call("enumeration.typed_trees_up_to",
                                 enumeration.typed_trees_up_to, 2, d=2, max_dec=1,
                                 max_edge_dec=1))[::self.D2_STRIDE]
        self.pbs = []
        for t in call("enumeration.pb_trees_up_to", enumeration.pb_trees_up_to, 3, 2):
            try:
                call("deformed.pb_to_typed", deformed.pb_to_typed, t)
            except TreeError:
                continue
            self.pbs.append(t)
        self.pbs = by_key(self.pbs)

    def setup(self):
        self.setup_catalog()
        with open(STRATA, encoding="utf-8") as fh:
            weights = json.load(fh)
        sample1 = _stratified(self.pool1, weights["d1"], self.D1_SAMPLE,
                              self.D1_FIXED, self.rng)
        sample2 = _stratified(self.pool2, weights["d2"], self.D2_SAMPLE,
                              self.D2_FIXED, self.rng)
        self.ops = ([("d1", z) for z in sample1] + [("d2", z) for z in sample2]
                    + [("degeneration", t) for t in self.pbs])
        self.rng.shuffle(self.ops)

    def catalog(self):
        return ([("d1", z) for z in self.pool1] + [("d2", z) for z in self.pool2]
                + [("degeneration", t) for t in self.pbs])

    def op_d1(self, z):
        return self._typed(z, self.cfg1, self.cap1)

    def op_d2(self, z):
        return self._typed(z, self.cfg2, self.cap2)

    def _typed(self, z, cfg, cap):
        call = self.t.call
        lhs, rhs = call("negative.cointeraction_sides_trunc",
                        negative.cointeraction_sides_trunc, z, cfg, cap)
        ok = self.compare(lhs, rhs)
        lhs_ex, rhs_ex = call("negative.cointeraction_sides_ex",
                              negative.cointeraction_sides_ex, z, cfg)
        ok &= self.compare(lhs_ex, rhs_ex)
        # Delta+_0 is dual to star+ on the terms whose edge indices stay
        # within the cap (the cap truncates the rest)
        dp = call("deformed.delta_plus_0", deformed.delta_plus_0, z, cap)
        kept, via_products = LinComb(), LinComb()
        for (x, y), c in dp.items():
            if _edge_indices_within(x, cap) and _edge_indices_within(y, cap):
                kept.add_term(Tensor((x, y)), c)
                prod = call("deformed.star_plus", deformed.star_plus, x, y)
                via_products.add_term(Tensor((x, y)), prod.coefficient(z))
        ok &= self.compare(kept, via_products)
        # Delta- extracts negative trees only
        dm = call("negative.delta_minus", negative.delta_minus, z, cfg)
        for mono, _ in dm:
            for m in mono:
                ok &= call("trees.regularity", regularity, m, cfg) < 0
        return ok, [lhs, lhs_ex, dp, dm]

    def op_degeneration(self, pb):
        """With zero decorations the typed coproducts restrict byte-for-byte
        to the edge-labelled ones."""
        call = self.t.call
        z = call("deformed.pb_to_typed", deformed.pb_to_typed, pb)
        degenerate = lambda t: call("deformed.in_degenerate_subspace",
                                    deformed.in_degenerate_subspace, t)
        down = lambda t: call("deformed.typed_to_pb", deformed.typed_to_pb, t)
        restricted = LinComb()
        for (x, y), c in call("deformed.delta_plus_0", deformed.delta_plus_0,
                              z, self.cap1).items():
            if degenerate(x) and degenerate(y):
                restricted.add_term(Tensor((down(x), down(y))), c)
        dp = call("rough.delta_plus_pb", rough.delta_plus_pb, pb)
        ok = self.compare(restricted, dp)
        restricted = LinComb()
        for (mono, y), c in call("negative.delta_minus", negative.delta_minus,
                                 z, self.dcfg).items():
            if all(degenerate(m) for m in mono) and degenerate(y):
                restricted.add_term(Tensor((Multiset(down(m) for m in mono),
                                            down(y))), c)
        dm = call("rough.delta_minus_pb", rough.delta_minus_pb, pb, self.pcfg)
        ok &= self.compare(restricted, dm)
        return ok, [dp, dm]


# ---------------------------------------------------------------------------
# eval-stream

LETTERS = ("a", "b", "c")
FORMATS = ("text", "json", "latex")


def _label_tree(rng, n, letters=LETTERS):
    if n <= 1:
        return rng.choice(letters)
    kids, left = [], n - 1
    while left:
        k = rng.randint(1, left)
        kids.append(_label_tree(rng, k, letters))
        left -= k
    return rng.choice(letters) + "[" + ",".join(kids) + "]"


def _label_forest(rng, n, letters=LETTERS):
    trees, left = [], n
    while left:
        k = rng.randint(1, left)
        trees.append(_label_tree(rng, k, letters))
        left -= k
    return "{" + " ".join(trees) + "}"


def _plain_tree(rng, edges, labels=2):
    """An edge-labelled tree in the image of the vertex-to-edge isomorphism:
    a non-zero label only on the rightmost edge at a vertex, ending at a leaf."""
    if edges == 0:
        return "o"
    kids, left = [], edges
    while left:
        k = rng.randint(1, left)
        left -= k
        if k == 1 and not left and rng.random() < 0.5:
            kids.append(f"{rng.randint(1, labels)}:o")
        else:
            kids.append(_plain_tree(rng, k - 1, labels))
    return "o[" + ",".join(kids) + "]"


def _typed_tree(rng, edges, noise_ok=True):
    """A typed tree; at most one noise edge per vertex, none at the root
    unless ``noise_ok``."""
    dec = str(rng.randint(0, 1))
    if edges == 0:
        return dec
    kids, left, noise = [], edges, not noise_ok
    while left:
        k = rng.randint(1, left)
        if k == 1 and not noise and rng.random() < 0.35:
            noise = True
            kids.append(f"X{rng.randint(1, 2)}#({rng.randint(0, 1)}):{rng.randint(0, 1)}")
        else:
            kids.append(f"K1#({rng.randint(0, 1)}):" + _typed_tree(rng, k - 1))
        left -= k
    return dec + "[" + ",".join(kids) + "]"


def _rat(rng):
    return f"{rng.randint(-5, 5)}/{rng.randint(1, 4)}"


ELL_PLAIN = "perfbench/data/ell_plain.json"
ELL_TYPED = "perfbench/data/ell_typed.json"

# family: (module it exercises, request builder); a family is one CLI function
REQUESTS = {
    "pair": ("linalg", lambda r: f"pair({_label_forest(r, 3)}, {_label_forest(r, 3)})"),
    "canonicalize": ("trees", lambda r: f"canonicalize({_label_tree(r, 5)})"),
    "vertexcount": ("trees", lambda r: f"vertexcount({_label_tree(r, 5)})"),
    "reg": ("trees", lambda r: f"reg({_plain_tree(r, 4)})"),
    "graft": ("postlie", lambda r: f"graft({_label_tree(r, 2)}, {_label_tree(r, 3)})"),
    "gograft": ("postlie", lambda r: f"gograft({_label_forest(r, 2)}, {_label_forest(r, 3)})"),
    "gl": ("postlie", lambda r: f"gl({_label_forest(r, 2)}, {_label_forest(r, 3)})"),
    "shuffle": ("postlie", lambda r: f"shuffle({_label_forest(r, 2)}, {_label_forest(r, 3)})"),
    "mkw": ("postlie", lambda r: f"mkw({_label_forest(r, 4)})"),
    "bplus": ("postlie", lambda r: f"bplus({_label_forest(r, 3)})"),
    "bminus": ("postlie", lambda r: "bminus(o[" + ",".join(
        _label_tree(r, 1 + r.randint(0, 1)) for _ in range(2)) + "])"),
    "antipode": ("postlie", lambda r: f"antipode({_label_forest(r, 4)})"),
    "omega": ("postlie", lambda r: f"omega({_label_forest(r, 4)})"),
    "ck": ("postlie", lambda r: f"ck({_label_forest(r, 4)})"),
    "rhoS": ("coactions", lambda r: f"rhoS({_label_forest(r, 3)})"),
    "rhoT": ("coactions", lambda r: f"rhoT({_label_forest(r, 3)})"),
    "rhoT0": ("coactions", lambda r: f"rhoT0({_label_forest(r, 3)})"),
    "rhoTnp": ("coactions", lambda r: f"rhoTnp({_label_tree(r, 4)})"),
    "rhoSnp": ("coactions", lambda r: f"rhoSnp({_label_tree(r, 4)})"),
    "cointeract": ("coactions", lambda r: f"cointeract({_label_forest(r, 3)})"),
    "phi": ("rough", lambda r: f"phi({_label_forest(r, 3, ('0', '1', '2'))})"),
    "phiinv": ("rough", lambda r: f"phiinv({_plain_tree(r, 4)})"),
    "deltaplusPB": ("rough", lambda r: f"deltaplusPB({_plain_tree(r, 4)})"),
    "deltaminusPB": ("rough", lambda r: f"deltaminusPB({_plain_tree(r, 4)})"),
    "modelpi": ("rough", lambda r: f"modelpi({_rat(r)}, {_rat(r)}, {_plain_tree(r, 2, 1)})"),
    "modelgamma": ("rough", lambda r: f"modelgamma({_rat(r)}, {_rat(r)}, {_plain_tree(r, 2, 1)})"),
    "renorm": ("rough", lambda r: f"renorm({ELL_PLAIN}, {_plain_tree(r, r.randint(2, 3))})"),
    "dgraft": ("deformed", lambda r: f"dgraft({_typed_tree(r, 1, False)}, {_typed_tree(r, 2)})"),
    "starplus": ("deformed", lambda r: f"starplus({_typed_tree(r, 1, False)}, {_typed_tree(r, 1)})"),
    "deltaplus": ("deformed", lambda r: f"deltaplus({_typed_tree(r, 2)})"),
    "deltaplus0": ("deformed", lambda r: f"deltaplus0({_typed_tree(r, 2)}, --cap {r.randint(1, 2)})"),
    "up": ("deformed", lambda r: f"up({_typed_tree(r, 2)}, 0)"),
    "down": ("deformed", lambda r: f"down({_typed_tree(r, 2)}, 0)"),
    "gamma": ("deformed", lambda r: f"gamma({ELL_TYPED}, {_typed_tree(r, 2)})"),
    "insert": ("negative", lambda r: f"insert({_typed_tree(r, 1)}, {_typed_tree(r, 2)})"),
    "dinsert": ("negative", lambda r: f"dinsert({_typed_tree(r, 1)}, {_typed_tree(r, 2)})"),
    "starminus": ("negative", lambda r: f"starminus({{{_typed_tree(r, 1)}}}, {{{_typed_tree(r, 1)}}})"),
    "deltaminus": ("negative", lambda r: f"deltaminus({_typed_tree(r, 2)})"),
    "deltaminusnr": ("negative", lambda r: f"deltaminusnr({_typed_tree(r, 2)})"),
    "cointeract4": ("negative", lambda r: f"cointeract4({_typed_tree(r, 2)}, --cap 2)"),
    "cointeractex": ("negative", lambda r: f"cointeractex({_typed_tree(r, 2)})"),
}

# malformed families: each request must be rejected by ParseError/TreeError.
# Any other exception fails the op, except the one known defect: at the
# baseline commit ``up(<tree>, x)`` escapes as ValueError.  That escape is
# counted, not failed, so the family stays in the stream without failing it.
MALFORMED = {
    "bad-function": ("cli", lambda r: f"frobnicate({_label_tree(r, 4)})"),
    "bad-arity": ("postlie", lambda r: f"graft({_label_tree(r, 4)})"),
    "bad-syntax": ("postlie", lambda r: f"mkw({{{_label_tree(r, 4)[:-1]}}})"),
    "bad-mode": ("deformed", lambda r: f"dgraft({_label_tree(r, 2)}, {_typed_tree(r, 1)})"),
    "bad-image": ("rough", lambda r: f"phiinv(o[{r.randint(1, 2)}:o,{_plain_tree(r, r.randint(2, 3))}])"),
    "bad-int": ("deformed", lambda r: f"up({_typed_tree(r, 2)}, {r.choice(LETTERS)})"),
}
KNOWN_ESCAPE = "bad-int"

CATALOG_SEED = 2212
CATALOG_SIZE = 60        # distinct requests per family


def eval_catalog() -> dict:
    """``{family: [request, ...]}``, the same for every seed."""
    out = {}
    for family, (_, build) in sorted({**REQUESTS, **MALFORMED}.items()):
        rng = random.Random(f"{CATALOG_SEED}:{family}")
        seen = {}
        for _ in range(50 * CATALOG_SIZE):
            seen.setdefault(build(rng), None)
            if len(seen) == CATALOG_SIZE:
                break
        out[family] = list(seen)
    return out


class EvalStream(Workload):
    name = "eval-stream"
    PER_FAMILY = 12          # requests per family in one pass

    def setup(self):
        catalog = eval_catalog()
        picks = [(family, expr) for family in sorted(catalog)
                 for expr in self.rng.sample(catalog[family], self.PER_FAMILY)]
        self.rng.shuffle(picks)
        self.ops = [("request", (family, expr, FORMATS[i % len(FORMATS)]))
                    for i, (family, expr) in enumerate(picks)]
        self.counters = {"grammar.render_value.bytes": 0,
                         "cli.eval_expression.escapes": 0}

    def catalog(self):
        return [("request", (family, expr, fmt))
                for family, exprs in sorted(eval_catalog().items())
                for expr in exprs for fmt in FORMATS]

    def key(self, kind, x):
        family, expr, fmt = x
        return f"{fmt}|{expr}"

    def op_request(self, x):
        family, expr, fmt = x
        module = (REQUESTS.get(family) or MALFORMED[family])[0]
        call = self.t.call
        session = call("cli.Session", cli.Session)
        try:
            with self.t.span("eval." + module):
                value = call("cli.eval_expression", cli.eval_expression, expr, session)
            text = call("grammar.render_value", grammar.render_value, value, fmt)
        except TreeError:          # ParseError is a TreeError
            return family in MALFORMED, ["rejected"]
        except ValueError:
            if family != KNOWN_ESCAPE:
                raise
            self.counters["cli.eval_expression.escapes"] += 1
            return True, ["rejected"]
        self.counters["grammar.render_value.bytes"] += len(text.encode("utf-8"))
        return family not in MALFORMED, [text]


# ---------------------------------------------------------------------------
# suite-all


class SuiteAll(Workload):
    """``suite all`` at the CLI's default seed, whatever the run seed.

    The suites draw their random samples from the suite seed, and seeds
    differ in cost: seed 3 ran 15 % more checks per second than seeds 1 and 2.
    Passing the run seed through would make that spread between runs."""

    name = "suite-all"
    SUITE_SEED = 0

    def setup(self):
        self.ops = [("suite", "all")]

    def catalog(self):
        return [("suite", "all")]

    def timed(self, record) -> None:
        """One ``suite all`` run; each check is an op timed by the suite.

        ``run_all`` calls ``suites.run_suite`` once per suite; wrapping it
        collects the results and times the calibration loop between suites,
        outside every check."""
        run_suite = suites.run_suite
        results = []

        def observed(name, *args, **kwargs):
            self.calibrate(3)
            start = time.perf_counter()
            out = self.t.call("suites." + name, run_suite, name, *args, **kwargs)
            midpoint = (start + time.perf_counter()) / 2
            self.calibrate(3)
            results.extend((r, midpoint) for r in out)
            return out

        buf = io.StringIO()
        suites.run_suite = observed
        try:
            with contextlib.redirect_stdout(buf):
                cli.main(["suite", "all", "--seed", str(self.SUITE_SEED)])
        finally:
            suites.run_suite = run_suite
        for r, midpoint in results:
            record(f"check|{r.name}", r.seconds, r.ok, [r.name, r.detail], midpoint)
        if not results:
            record("check|none", 0.0, False, [buf.getvalue()], time.perf_counter())


WORKLOADS = {w.name: w for w in (PlanarSweep, TypedSweep, EvalStream, SuiteAll)}
