"""Per-layer tracing of an `rbx verify` pass, from outside the program.

`Tracer.install()` replaces rbx's public functions and carrier methods with
wrappers where the program looks them up: in each module namespace that
binds the name with `from ... import`, on carrier classes for their
operators, and in the CLI's suite table. Nothing under `src/` changes.

Suites, checks and algorithms get one span each (name, start, end, parent,
self time). Carrier, polynomial, scalar, series and combinat calls run into
the millions, so they keep aggregate counts and times only. A wrapper's self
time is its duration minus the time of the traced calls beneath it.
Everything stays in memory until `write_jsonl` at the end of the pass.
"""

from __future__ import annotations

import json
import time

_clock = time.perf_counter

# per-layer metric -> (aggregate, field); the names BENCHMARK.json lists
SUITES = (
    "rb-laws", "shuffle", "quasi-shuffle", "dendriform", "prelie", "spitzer", "nc-spitzer",
    "magnus", "bohnenblust-spitzer", "atkinson", "bogoliubov", "flows-bch", "yang-baxter",
    "standard-symmetric",
)
CARRIERS = ("matrix", "laurent", "standard", "summation", "integration")


def _metric_table() -> dict:
    table = {f"cli.suite_s.{s}": (f"cli.suite.{s}", "incl_s") for s in SUITES}
    table["report.emit_s"] = ("report.emit", "incl_s")
    for fn in ("check_rb_law", "check_linearity", "check_double_assoc_and_hom", "check_prelie_axiom"):
        table[f"algebra.check_s.{fn}"] = (f"algebra.{fn}", "incl_s")
    table["algebra.prelie_left_calls"] = ("algebra.prelie_left", "calls")
    table["algebra.double_product_calls"] = ("algebra.double_product", "calls")
    for fn in ("check_modified_ybe", "check_dendriform", "check_operator_ybe"):
        table[f"yangbaxter.check_s.{fn}"] = (f"yangbaxter.{fn}", "incl_s")
    for fn in ("prelie_magnus", "solve_fixed_point"):
        table[f"identities.{fn}_calls"] = (f"identities.{fn}", "calls")
        table[f"identities.{fn}_s"] = (f"identities.{fn}", "incl_s")
    for fn in ("flows_product", "bch_of_series", "check_atkinson", "check_bohnenblust_spitzer"):
        table[f"identities.{fn}_s"] = (f"identities.{fn}", "incl_s")
    table["identities.cycle_chain_product_calls"] = ("identities.cycle_chain_product", "calls")
    for op in ("mul", "log", "exp", "inverse"):
        table[f"series.{op}_calls"] = (f"series.{op}", "calls")
        table[f"series.{op}_s"] = (f"series.{op}", "incl_s")
    for carrier in CARRIERS:
        for op in ("mul", "add", "R"):
            table[f"models.{carrier}.{op}_calls"] = (f"models.{carrier}.{op}", "calls")
            table[f"models.{carrier}.{op}_self_s"] = (f"models.{carrier}.{op}", "self_s")
    for kind in ("ncpoly", "cpoly"):
        table[f"polynomials.{kind}.mul_calls"] = (f"polynomials.{kind}.mul", "calls")
        table[f"polynomials.{kind}.mul_self_s"] = (f"polynomials.{kind}.mul", "self_s")
        table[f"polynomials.{kind}.terms_out"] = (f"polynomials.{kind}.mul", "terms_out")
    table["scalars.lowest_terms_calls"] = ("scalars.lowest_terms", "calls")
    for fn in ("permutations", "canonical_cycles", "set_partitions", "shuffle", "quasi_shuffle"):
        table[f"combinat.{fn}_s"] = (f"combinat.{fn}", "incl_s")
    return table


METRICS = _metric_table()


def unit(metric: str) -> str:
    """`count` for call and term counts, `s` for times, trace.overhead_s included."""
    return "count" if METRICS.get(metric, ("", "s"))[1] in ("calls", "terms_out") else "s"


class Tracer:
    """Spans and aggregates of one traced pass."""

    def __init__(self):
        self.aggs = {}  # name -> [calls, incl_s, self_s, terms_out]
        self.spans = []
        self._inner = [0.0]  # traced time beneath each open timed call
        self._open = {}  # name -> open calls, so recursion adds incl_s once
        self._span_ids = [None]
        self._originals = []

    def _agg(self, name: str) -> list:
        agg = self.aggs.get(name)
        if agg is None:
            agg = self.aggs[name] = [0, 0.0, 0.0, 0]
        return agg

    def timed(self, name_of, fn, span: bool = False, terms: bool = False):
        """Wrap fn: count, inclusive and self time under name_of(args)."""
        inner, open_, agg_of = self._inner, self._open, self._agg
        spans, span_ids = self.spans, self._span_ids
        if isinstance(name_of, str):
            fixed = name_of
            name_of = lambda args: fixed  # noqa: E731

        def wrapper(*args, **kwargs):
            name = name_of(args)
            open_[name] = depth = open_.get(name, 0) + 1
            if span:
                span_id = len(spans)
                spans.append(None)
                span_ids.append(span_id)
            inner.append(0.0)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                beneath = inner.pop()
                inner[-1] += elapsed
                open_[name] = depth - 1
                agg = agg_of(name)
                agg[0] += 1
                if depth == 1:
                    agg[1] += elapsed
                agg[2] += elapsed - beneath
                if span:
                    span_ids.pop()
                    spans[span_id] = {
                        "id": span_id, "parent": span_ids[-1], "name": name,
                        "start": start, "end": start + elapsed, "self_s": elapsed - beneath,
                    }
            if span and hasattr(result, "status"):
                spans[span_id]["check"] = result.name
                spans[span_id]["status"] = result.status
            if terms:
                agg[3] += len(result.num)
            return result

        return wrapper

    def timed_generator(self, name: str, fn):
        """Wrap a generator function: time spent producing its items."""
        inner, agg_of = self._inner, self._agg

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            agg = agg_of(name)
            agg[0] += 1
            while True:
                inner.append(0.0)
                start = _clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    elapsed = _clock() - start
                    beneath = inner.pop()
                    inner[-1] += elapsed
                    agg[1] += elapsed
                    agg[2] += elapsed - beneath
                yield item

        return wrapper

    def counted(self, name: str, fn):
        """Wrap fn with a call count only, for calls too cheap to time."""
        agg = self._agg(name)

        def wrapper(*args, **kwargs):
            agg[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_item(self, table: dict, key: str, wrapper) -> None:
        self._originals.append((table, key, table[key]))
        table[key] = wrapper

    def _rebind(self, modules, attr: str, make) -> None:
        """Replace one function in every module that binds it, by one wrapper."""
        wrapper = make(getattr(modules[0], attr))
        for module in modules:
            self._patch(module, attr, wrapper)

    def install(self) -> None:
        """Wrap rbx's layers. Call after `import rbx`, before `main`."""
        from rbx import algebra, cli, combinat, identities, models, polynomials, scalars, series
        from rbx import yangbaxter

        # suites and report rendering
        for suite, fn in list(cli._SUITE_TABLE.items()):
            self._patch_item(cli._SUITE_TABLE, suite, self.timed(f"cli.suite.{suite}", fn, span=True))
        self._rebind([cli], "emit_report", lambda f: self.timed("report.emit", f, span=True))

        # checks: spans, wherever the CLI or a module calls them
        checks = {
            "algebra": ("check_rb_law", "check_linearity", "check_double_assoc_and_hom",
                        "check_prelie_axiom", "check_weight_rescale"),
            "yangbaxter": ("check_modified_ybe", "check_dendriform", "check_operator_ybe", "aybe_check"),
            "identities": ("check_atkinson", "check_bohnenblust_spitzer", "check_bogoliubov",
                           "check_flows_bch", "check_flows_product_law", "check_nc_spitzer",
                           "spitzer_check_commutative"),
            "models": ("elementary_symmetric_check", "check_vector_field_prelie"),
        }
        home = {"algebra": algebra, "yangbaxter": yangbaxter, "identities": identities, "models": models}
        for layer, names in checks.items():
            for fn in names:
                where = [home[layer], cli]
                self._rebind(where, fn, lambda f, n=f"{layer}.{fn}": self.timed(n, f, span=True))

        # algorithms
        for fn, where in (
            ("prelie_magnus", [identities, cli]),
            ("solve_fixed_point", [identities]),
            ("flows_product", [identities]),
            ("bch_of_series", [identities]),
        ):
            self._rebind(where, fn, lambda f, n=f"identities.{fn}": self.timed(n, f, span=True))
        self._rebind([identities], "cycle_chain_product",
                     lambda f: self.counted("identities.cycle_chain_product", f))
        self._rebind([algebra, identities, cli], "prelie_left",
                     lambda f: self.counted("algebra.prelie_left", f))
        self._rebind([algebra, identities, yangbaxter], "double_product",
                     lambda f: self.counted("algebra.double_product", f))

        # series operations
        self._rebind([series], "series_mul", lambda f: self.timed("series.mul", f))
        for op in ("log", "exp", "inverse"):
            self._rebind([series, identities], f"series_{op}",
                         lambda f, n=f"series.{op}": self.timed(n, f))

        # carriers: operators on their classes, R where the algebras bind it
        ops = {"__mul__": "mul", "__add__": "add", "__sub__": "add", "__neg__": "add", "__rmul__": "add"}
        for cls, carrier in ((models.RatMatrix, "matrix"), (models.LaurentElement, "laurent"),
                             (models.PolyFunction, "integration")):
            for method, op in ops.items():
                self._patch(cls, method, self.timed(f"models.{carrier}.{op}", getattr(cls, method)))
        ncpoly = polynomials.NCPoly

        def seq_kind(s) -> str:
            """'standard' for a SeqElement over polynomials, 'summation' over rationals."""
            return "standard" if isinstance(s.entries[0], ncpoly) else "summation"

        for method, op in ops.items():
            names = {kind: f"models.{kind}.{op}" for kind in ("standard", "summation")}
            self._patch(models.SeqElement, method, self.timed(
                lambda args, names=names: names[seq_kind(args[0])], getattr(models.SeqElement, method)))
        for fn, carrier in (("triangular_projection", "matrix"), ("laurent_pole_projection", "laurent"),
                            ("riemann_integral", "integration")):
            self._rebind([models], fn, lambda f, n=f"models.{carrier}.R": self.timed(n, f))
        # summation_operator delegates to standard_sum_operator, so R is timed
        # once there and told apart by the entry type
        r_names = {kind: f"models.{kind}.R" for kind in ("standard", "summation")}
        self._rebind([models], "standard_sum_operator",
                     lambda f: self.timed(lambda args: r_names[seq_kind(args[0])], f))

        # polynomial products (CPoly inherits NCPoly.__mul__)
        cpoly = polynomials.CPoly
        self._patch(ncpoly, "__mul__", self.timed(
            lambda args: "polynomials.cpoly.mul" if isinstance(args[0], cpoly) else "polynomials.ncpoly.mul",
            ncpoly.__mul__, terms=True))

        # scalar normalisation: both lowest-terms helpers, wherever bound
        self._rebind([scalars, models], "lowest_terms", lambda f: self.counted("scalars.lowest_terms", f))
        self._rebind([scalars, models, polynomials], "lowest_terms_sparse",
                     lambda f: self.counted("scalars.lowest_terms", f))

        # combinatorics
        self._rebind([identities], "permutations", lambda f: self.timed_generator("combinat.permutations", f))
        for fn, where in (("canonical_cycles", [identities]), ("set_partitions", [identities]),
                          ("shuffle", [combinat, cli]), ("quasi_shuffle", [combinat, cli])):
            self._rebind(where, fn, lambda f, n=f"combinat.{fn}": self.timed(n, f))

    def uninstall(self) -> None:
        """Put every original back, last patched first."""
        for owner, attr, original in reversed(self._originals):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._originals.clear()

    def metrics(self) -> dict:
        """Every per-layer metric; a layer the pass never entered reads 0."""
        fields = {"calls": 0, "incl_s": 1, "self_s": 2, "terms_out": 3}
        out = {}
        for metric, (agg, field) in METRICS.items():
            out[metric] = self.aggs.get(agg, [0, 0.0, 0.0, 0])[fields[field]]
        return out

    def write_jsonl(self, path: str, run: dict) -> None:
        """One line per span, then one per aggregate, each tagged with `run`."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({"type": "span", **run, **span}, sort_keys=True) + "\n")
            for name in sorted(self.aggs):
                calls, incl, self_s, terms = self.aggs[name]
                fh.write(json.dumps({"type": "aggregate", **run, "name": name, "calls": calls,
                                     "incl_s": incl, "self_s": self_s, "terms_out": terms},
                                    sort_keys=True) + "\n")
