"""Reply checks, run after the timed passes.

Every reply is compared with what the query's answer must be: the recorded
or known verdict for ``check`` and ``sat``, the reference evaluator for
``mc`` and the reference frame checks for ``props``.  Every model a ``sat``
reply writes is reloaded with the package's loader, passed through
``validate_model`` for its logic, and model-checked by the reference
evaluator at its pointed state.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import reference


@dataclass
class Reply:
    query: int
    pass_no: int
    code: object  # exit code, or None when main raised
    stdout: str
    stderr: str
    seconds: float


def check_model_file(path: Path, logic: str, formula_text: str, agents: int) -> str | None:
    """Why a written model is wrong, or None when it validates and satisfies."""
    from cglogic.logics import LogicId
    from cglogic.models import ModelError, load_pointed_model, validate_model

    try:
        ref = reference.model_from_doc(json.loads(path.read_bytes()))
    except (ValueError, KeyError, TypeError) as exc:
        return f"model file unreadable: {exc}"
    if ref.pointed is None:
        return "model file has no pointed state"
    if ref.agents != agents:
        return f"model has {ref.agents} agents, query has {agents}"
    try:
        pointed = load_pointed_model(path)
    except ModelError as exc:
        return f"package loader rejects the model: {exc}"
    report = validate_model(pointed.model, LogicId.from_string(logic))
    if not report.passed:
        return f"model is not a {logic}-model: {report.violation.describe()}"
    if not reference.holds(ref, ref.pointed, reference.parse(formula_text, agents)):
        return "model does not satisfy the formula at its pointed state"
    return None


class Checker:
    """Checks replies against the answers their queries must get."""

    def __init__(self, queries):
        self.queries = queries
        self.model_verdicts: dict[tuple, str | None] = {}
        self.models: dict = {}
        self.truth: dict = {}
        self.model_states: list[int] = []

    def check(self, reply: Reply) -> str | None:
        """Why the reply is wrong, or None."""
        query = self.queries[reply.query]
        if reply.code is None:
            return f"raised: {reply.stderr.strip().splitlines()[-1:]}"
        if reply.code != 0:
            return f"exit code {reply.code}: {reply.stderr.strip()[:200]}"
        try:
            record = json.loads(reply.stdout)
        except ValueError:
            record = None
        if not isinstance(record, dict):
            return f"reply is not one JSON record: {reply.stdout[:200]!r}"
        command = query.argv[1]
        if command in ("check", "sat"):
            for key in ("result", "formula", "logic"):
                if record.get(key) != query.expect[key]:
                    return f"{key} {record.get(key)!r}, expected {query.expect[key]!r}"
            if command == "sat" and query.model_out is not None:
                return self._check_written_model(query, reply, record)
            return None
        if command == "mc":
            if record.get("formula") != query.expect["formula"]:
                return f"formula echoed as {record.get('formula')!r}"
            expected = "true" if self._holds(query.argv[2], query.expect) else "false"
            if record.get("result") != expected:
                return f"mc result {record.get('result')!r}, reference says {expected!r}"
            return None
        if command == "props":
            key = ("props", query.argv[2])
            if key not in self.truth:
                self.truth[key] = reference.frame_properties(self._model(query.argv[2]))
            for prop, value in self.truth[key].items():
                if record.get(prop) != value:
                    return f"props {prop}={record.get(prop)!r}, reference says {value!r}"
            return None
        return f"unknown command {command!r}"

    def _model(self, path: str) -> reference.RefModel:
        if path not in self.models:
            self.models[path] = reference.model_from_doc(json.loads(Path(path).read_bytes()))
        return self.models[path]

    def _holds(self, path: str, expect) -> bool:
        key = ("mc", path, expect["formula"])
        if key not in self.truth:
            model = self._model(path)
            f = reference.parse(expect["formula"], model.agents)
            self.truth[key] = reference.truth_set(model, f)
        return expect["state"] in self.truth[key]

    def _check_written_model(self, query, reply, record) -> str | None:
        path = query.model_path(reply.pass_no)
        if record.get("model") != str(path) or not path.is_file():
            return f"no model written at {path}"
        data = path.read_bytes()
        key = (hashlib.sha256(data).hexdigest(), query.expect["logic"], query.expect["formula"])
        if key not in self.model_verdicts:
            agents = int(query.argv[query.argv.index("--agents") + 1])
            self.model_verdicts[key] = check_model_file(
                path, query.expect["logic"], query.expect["formula"], agents
            )
        if reply.pass_no == 0:
            self.model_states.append(len(json.loads(data)["states"]))
        return self.model_verdicts[key]


def outputs_digest(queries, replies, workdir: Path) -> str:
    """SHA-256 over the first pass: each reply's output and written model."""
    h = hashlib.sha256()
    first = {r.query: r for r in replies if r.pass_no == 0}
    for index in range(len(queries)):
        reply = first.get(index)
        if reply is None:
            continue
        h.update(reply.stdout.replace(str(workdir), "<work>").encode())
        if queries[index].model_out is not None and queries[index].model_path(0).is_file():
            h.update(queries[index].model_path(0).read_bytes())
    return h.hexdigest()
