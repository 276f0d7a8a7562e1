"""The whole-program model and its content-hash cache.

:class:`ProgramModel.build` turns a file list into per-module
summaries (:mod:`repro.analysis.dataflow`) plus the local R1-R5
findings of each file, parsing only what changed: the
:class:`ModelCache` persists ``{sha256, summary, findings}`` per file
under ``$REPRO_CACHE_DIR/lint-model.json`` (default ``.repro_cache/``),
so a warm ``make lint`` rehydrates summaries instead of re-parsing.
The interprocedural rules run from summaries alone — they never need
the ASTs back.

Cache entries are invalidated by file content (sha256) and by
:data:`ENGINE_VERSION`, which must be bumped whenever rule logic or the
summary shape changes.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..env import cache_dir
from .callgraph import CallGraph
from .dataflow import ModuleContext, ModuleSummary, analyze_module
from .findings import Finding

__all__ = ["ENGINE_VERSION", "ModelCache", "ProgramModel"]

#: Bump whenever rule logic, the summary shape, or the registry changes
#: in a way that invalidates cached per-file results.
ENGINE_VERSION = "2.1"

_CACHE_FILENAME = "lint-model.json"


class ModelCache:
    """One JSON file of per-path ``{sha256, summary, findings}`` entries."""

    def __init__(self, root: Optional[str] = None):
        if root is None:
            root = cache_dir()
        self.root = root
        self.path = os.path.join(root, _CACHE_FILENAME)

    # ------------------------------------------------------------------
    def load(self) -> Dict[str, dict]:
        """Per-abspath entries, or {} when absent/stale/corrupt."""
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return {}
        if not isinstance(data, dict) or data.get("engine") != ENGINE_VERSION:
            return {}
        files = data.get("files")
        return files if isinstance(files, dict) else {}

    def save(self, entries: Dict[str, dict]) -> None:
        """Atomically replace the cache file (best effort)."""
        payload = {"engine": ENGINE_VERSION, "files": entries}
        tmp = self.path + ".tmp"
        try:
            os.makedirs(self.root, exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            os.replace(tmp, self.path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _finding_to_cache(f: Finding) -> dict:
    return {
        "rule": f.rule,
        "rule_name": f.rule_name,
        "line": f.line,
        "col": f.col,
        "message": f.message,
        "snippet": f.snippet,
    }


def _finding_from_cache(data: dict, path: str) -> Finding:
    return Finding(
        rule=data["rule"],
        rule_name=data["rule_name"],
        path=path,
        line=int(data["line"]),
        col=int(data["col"]),
        message=data["message"],
        snippet=data.get("snippet", ""),
    )


# ----------------------------------------------------------------------
@dataclass
class ProgramModel:
    """Everything one lint run knows about the project."""

    #: rel path -> module summary (skip-file'd modules are absent).
    summaries: Dict[str, ModuleSummary] = field(default_factory=dict)
    #: rel path -> full local-rule findings (pre-suppression, all rules).
    local_findings: Dict[str, List[Finding]] = field(default_factory=dict)
    #: rel path -> source lines (for suppressions and snippets).
    source_lines: Dict[str, List[str]] = field(default_factory=dict)
    skipped: Set[str] = field(default_factory=set)
    parse_errors: List[Tuple[str, str]] = field(default_factory=list)
    files_checked: int = 0
    cache_hits: int = 0
    parsed: int = 0
    _graph: Optional[CallGraph] = None

    @property
    def graph(self) -> CallGraph:
        if self._graph is None:
            self._graph = CallGraph(self.summaries.values())
        return self._graph

    def snippet(self, path: str, lineno: int) -> str:
        lines = self.source_lines.get(path, [])
        if 1 <= lineno <= len(lines):
            return lines[lineno - 1].strip()
        return ""

    def stats(self) -> Dict[str, int]:
        return {
            "files": self.files_checked,
            "cache_hits": self.cache_hits,
            "parsed": self.parsed,
        }

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        files: Sequence[Tuple[str, str]],
        local_rules: Sequence[object],
        cache: Optional[ModelCache] = None,
        skip_predicate: Optional[Callable[[List[str]], bool]] = None,
    ) -> "ProgramModel":
        """Build the model over ``files`` — ``(abs_path, rel_path)``
        pairs — running every local rule on files whose content hash
        misses the cache.  ``skip_predicate(source_lines)`` implements
        the ``# repro-lint: skip-file`` convention."""
        model = cls()
        cached = cache.load() if cache is not None else {}
        fresh: Dict[str, dict] = {}
        for abs_path, rel in files:
            model.files_checked += 1
            try:
                with open(abs_path, "rb") as fh:
                    data = fh.read()
                text = data.decode("utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                model.parse_errors.append((rel, str(exc)))
                continue
            lines = text.splitlines()
            model.source_lines[rel] = lines
            if skip_predicate is not None and skip_predicate(lines):
                model.skipped.add(rel)
                continue
            sha = hashlib.sha256(data).hexdigest()
            entry = cached.get(abs_path)
            if (
                entry is not None
                and entry.get("sha256") == sha
                and isinstance(entry.get("summary"), dict)
            ):
                try:
                    summary = ModuleSummary.from_dict(entry["summary"])
                    findings = [
                        _finding_from_cache(f, rel)
                        for f in entry.get("findings", ())
                    ]
                except (KeyError, TypeError, ValueError):
                    entry = None
                else:
                    model.cache_hits += 1
                    fresh[abs_path] = entry
            if entry is None or entry.get("sha256") != sha:
                try:
                    ctx = ModuleContext.parse(rel, text)
                except SyntaxError as exc:
                    model.parse_errors.append((rel, str(exc)))
                    continue
                summary = analyze_module(ctx)
                findings = []
                for rule in local_rules:
                    findings.extend(rule.check(ctx))
                model.parsed += 1
                fresh[abs_path] = {
                    "sha256": sha,
                    "summary": summary.to_dict(),
                    "findings": [_finding_to_cache(f) for f in findings],
                }
            model.summaries[rel] = summary
            model.local_findings[rel] = findings
        if cache is not None:
            cache.save(fresh)
        return model
