"""Outside-in tracer for the traced pass.

It replaces public functions of ``cglogic`` modules, under the names each
module looks them up by, with wrappers that record a span per call: name,
start, end, parent span and query id.  Because calls inside the package go
through those module-level names, recursive and cross-module calls become
nested spans (``cglogic.synth.synthesize`` calling itself through
``provider``, ``cglogic.decide._validity`` reaching ``to_standard_disjunctions``
through ``cglogic.decide``).  Spans stay in memory in flat arrays and are
written out when the run ends.  Counters read return values and arguments:
clauses, blueprint profiles, listed formulas and states.

The tracer is installed only for the traced pass; untraced passes run the
package untouched.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from time import perf_counter_ns


def _count_clauses(counts, args, result):
    counts["clauses"] += len(result)


def _count_witness(counts, args, result):
    counts["witnesses"] += result is not None


def _count_blueprint(counts, args, result):
    listing = result.listing
    counts["profiles"] += len(listing)
    counts["listed"] += sum(len(formulas) for formulas in listing.values())
    counts["distinct_listed"] += len(set().union(*listing.values())) if listing else 0


def _count_glued(counts, args, result):
    counts["glued_states"] += len(result.model.states)


def _count_scanned(counts, args, result):
    counts["states_scanned"] += len(args[0].states)


# (module, attribute, span name, counter).  Span names are "<layer>.<what>";
# the layer is the module in src/cglogic that does the work.
WRAPS = (
    ("cglogic.cli", "main", "cli.main", None),
    ("cglogic.cli", "parse", "syntax.parse", None),
    ("cglogic.cli", "render", "syntax.render", None),
    ("cglogic.cli", "is_valid", "decide.entry", None),
    ("cglogic.cli", "is_satisfiable", "decide.entry", None),
    ("cglogic.cli", "explain", "decide.entry", None),
    ("cglogic.cli", "synthesize", "synth.synthesize", None),
    ("cglogic.cli", "satisfies", "mcheck.entry", None),
    ("cglogic.cli", "load_model", "models.load_model", None),
    ("cglogic.cli", "save_model", "models.save_model", None),
    ("cglogic.cli", "frame_properties", "models.frame_properties", None),
    ("cglogic.decide", "render", "syntax.render", None),
    ("cglogic.decide", "to_standard_disjunctions", "normalform.to_sd", _count_clauses),
    ("cglogic.decide", "reduction_witness", "decide.reduction_witness", _count_witness),
    ("cglogic.decide", "is_taut", "decide.is_taut", None),
    ("cglogic.normalform", "render", "syntax.render", None),
    ("cglogic.synth", "render", "syntax.render", None),
    ("cglogic.synth", "to_standard_disjunctions", "normalform.to_sd", _count_clauses),
    ("cglogic.synth", "reduction_witness", "decide.reduction_witness", _count_witness),
    ("cglogic.synth", "synthesize", "synth.synthesize", None),
    ("cglogic.synth", "build_blueprint", "synth.build_blueprint", _count_blueprint),
    ("cglogic.synth", "realize", "synth.realize", _count_glued),
    ("cglogic.synth", "satisfies", "mcheck.verify", None),
    ("cglogic.synth", "enables", "mcheck.verify", None),
    ("cglogic.synth", "ensures", "mcheck.verify", None),
    ("cglogic.synth", "available_actions", "models.available_actions", None),
    ("cglogic.synth", "validate_model", "models.validate_model", None),
    ("cglogic.mcheck", "sat_states", "mcheck.sat_states", _count_scanned),
    ("cglogic.models", "available_actions", "models.available_actions", None),
)


class Tracer:
    """Span recorder; ``install`` patches the package, ``uninstall`` restores it."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.query = array("q")
        self.query_id = -1
        self.stack = [-1]
        self.counts: dict[str, int] = {
            key: 0
            for key in (
                "clauses", "witnesses", "oracle_calls", "profiles", "listed",
                "distinct_listed", "glued_states", "states_scanned",
            )
        }
        self.saved: list = []
        self.missing: list[str] = []
        self.broken_counters: set[str] = set()

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def span(self, name: str, fn, counter=None):
        """Wrap ``fn`` so each call records a span named ``name``."""
        name_id = self._name_id(name)
        # reduction_witness gets the validity oracle as its third argument.
        counts_oracle = name == "decide.reduction_witness"
        names, starts, ends, parents, queries, stack = (
            self.name_of, self.start, self.end, self.parent, self.query, self.stack,
        )

        def wrapper(*args, **kwargs):
            if counts_oracle and len(args) >= 3:
                rec = args[2]

                def counted(f):
                    self.counts["oracle_calls"] += 1
                    return rec(f)

                args = args[:2] + (counted,) + args[3:]
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            queries.append(self.query_id)
            ends.append(0)
            stack.append(index)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                stack.pop()
            if counter is not None:
                try:
                    counter(self.counts, args, result)
                except (AttributeError, TypeError):
                    self.broken_counters.add(name)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, counter in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self.saved.append((module, attr, original))
            setattr(module, attr, self.span(name, original, counter))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()

    def layer_totals(self) -> dict:
        """Per span name: calls, total ns and self ns (total minus the time
        covered by direct child spans).  Spans nest strictly: one thread."""
        n = len(self.start)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        totals = {name: {"calls": 0, "total_ns": 0, "self_ns": 0} for name in self.names}
        for i in range(n):
            entry = totals[self.names[self.name_of[i]]]
            duration = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["total_ns"] += duration
            entry["self_ns"] += duration - child_ns[i]
        return totals

    def write(self, path) -> None:
        """Spans as tab-separated name, start, end, parent, query (gzip)."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("name\tstart_ns\tend_ns\tparent\tquery\n")
            names = self.names
            for i in range(len(self.start)):
                out.write(
                    f"{names[self.name_of[i]]}\t{self.start[i]}\t{self.end[i]}"
                    f"\t{self.parent[i]}\t{self.query[i]}\n"
                )


def layer_metrics(totals: dict, counts: dict) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from span totals."""

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    def self_ms(name):
        return get(name, "self_ns") / 1e6

    def ratio(num, den):
        return num / den if den else 0.0

    witness_calls = get("decide.reduction_witness", "calls")
    return {
        "cli.main_self_ms": self_ms("cli.main"),
        "syntax.parse_ms": self_ms("syntax.parse"),
        "syntax.render_calls": get("syntax.render", "calls"),
        "syntax.render_ms": self_ms("syntax.render"),
        "normalform.to_sd_calls": get("normalform.to_sd", "calls"),
        "normalform.to_sd_ms": self_ms("normalform.to_sd"),
        "normalform.clauses": counts["clauses"],
        "decide.entry_self_ms": self_ms("decide.entry"),
        "decide.reduction_witness_calls": witness_calls,
        "decide.reduction_witness_self_ms": self_ms("decide.reduction_witness"),
        "decide.witness_hit_ratio": ratio(counts["witnesses"], witness_calls),
        "decide.is_taut_calls": get("decide.is_taut", "calls"),
        "decide.is_taut_ms": self_ms("decide.is_taut"),
        "decide.oracle_calls": counts["oracle_calls"],
        "synth.synthesize_calls": get("synth.synthesize", "calls"),
        "synth.synthesize_self_ms": self_ms("synth.synthesize"),
        "synth.build_blueprint_ms": self_ms("synth.build_blueprint"),
        "synth.blueprint_profiles": counts["profiles"],
        "synth.listed_formulas": counts["listed"],
        "synth.listed_distinct_ratio": ratio(counts["distinct_listed"], counts["listed"]),
        "synth.realize_self_ms": self_ms("synth.realize"),
        "synth.glued_states": counts["glued_states"],
        "mcheck.entry_self_ms": self_ms("mcheck.entry") + self_ms("mcheck.verify"),
        "mcheck.sat_states_calls": get("mcheck.sat_states", "calls"),
        "mcheck.sat_states_ms": self_ms("mcheck.sat_states"),
        "mcheck.states_scanned": counts["states_scanned"],
        "mcheck.verify_calls": get("mcheck.verify", "calls"),
        "models.load_model_ms": self_ms("models.load_model"),
        "models.frame_properties_ms": self_ms("models.frame_properties"),
        "models.validate_model_ms": self_ms("models.validate_model"),
        "models.save_model_ms": self_ms("models.save_model"),
        "models.available_actions_calls": get("models.available_actions", "calls"),
        "models.available_actions_ms": self_ms("models.available_actions"),
    }


# Self-time metrics that together partition the time inside cli.main spans.
SELF_TIME_METRICS = (
    "cli.main_self_ms", "syntax.parse_ms", "syntax.render_ms", "normalform.to_sd_ms",
    "decide.entry_self_ms", "decide.reduction_witness_self_ms", "decide.is_taut_ms",
    "synth.synthesize_self_ms", "synth.build_blueprint_ms", "synth.realize_self_ms",
    "mcheck.entry_self_ms", "mcheck.sat_states_ms", "models.load_model_ms",
    "models.frame_properties_ms", "models.validate_model_ms", "models.save_model_ms",
    "models.available_actions_ms",
)
