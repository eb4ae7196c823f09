"""Durable pipeline sessions: per-stage artifacts persisted as JSON.

Layout of a session directory::

    <session-dir>/
        manifest.json        # schema version, system, config, completed stages
        analysis.json        # one file per completed artifact ...
        profiles.json
        allocation.json
        beam.json
        report.json

Every write is atomic (temp file + rename) and the manifest's ``completed``
list is only extended *after* the stage's artifact files are on disk, so a
killed run always leaves a loadable prefix.  ``repro resume <dir>`` then
skips the completed prefix and re-runs the rest; because experiment seeds
are deterministic per (test, repetition), the resumed run is bit-identical
to a straight-through one.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, List

from ..config import CSnakeConfig
from ..errors import SessionError, SessionMismatch
from ..serialize import atomic_write_json
from .artifacts import ARTIFACT_CODECS

MANIFEST_NAME = "manifest.json"
SCHEMA_VERSION = 2


def _atomic_write(path: Path, payload: Dict[str, Any]) -> None:
    atomic_write_json(path, payload, indent=1)


class Session:
    """One durable pipeline run rooted at a directory."""

    def __init__(self, root: Path, manifest: Dict[str, Any]) -> None:
        self.root = Path(root)
        self.manifest = manifest

    # ------------------------------------------------------------ lifecycle

    @classmethod
    def attach(cls, root: "os.PathLike[str]", system: str, config: CSnakeConfig) -> "Session":
        """Create a session at ``root``, or re-open a compatible existing one.

        Re-opening an existing session under a different system or a
        result-affecting config difference raises
        :class:`~repro.errors.SessionMismatch` instead of silently mixing
        incompatible artifacts.
        """
        root = Path(root)
        manifest_path = root / MANIFEST_NAME
        if manifest_path.exists():
            session = cls.open(root)
            session.verify(system, config)
            return session
        root.mkdir(parents=True, exist_ok=True)
        manifest = {
            "schema": SCHEMA_VERSION,
            "system": system,
            "config": config.to_dict(),
            "completed": [],
        }
        session = cls(root, manifest)
        session._write_manifest()
        return session

    @classmethod
    def open(cls, root: "os.PathLike[str]") -> "Session":
        root = Path(root)
        manifest_path = root / MANIFEST_NAME
        if not manifest_path.exists():
            raise SessionError("no session manifest at %s" % manifest_path)
        try:
            with open(manifest_path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, ValueError) as exc:
            raise SessionError("unreadable session manifest: %s" % exc) from exc
        if manifest.get("schema") != SCHEMA_VERSION:
            raise SessionError(
                "session schema %r is not the supported %r"
                % (manifest.get("schema"), SCHEMA_VERSION)
            )
        return cls(root, manifest)

    def _write_manifest(self) -> None:
        _atomic_write(self.root / MANIFEST_NAME, self.manifest)

    # ------------------------------------------------------------- identity

    @property
    def system(self) -> str:
        return self.manifest["system"]

    @property
    def config(self) -> CSnakeConfig:
        return CSnakeConfig.from_dict(self.manifest["config"])

    def verify(self, system: str, config: CSnakeConfig) -> None:
        """Raise :class:`SessionMismatch` on any result-affecting difference."""
        if system != self.system:
            raise SessionMismatch(
                "session was created for system %r, not %r" % (self.system, system)
            )
        stored, current = self.config.result_affecting(), config.result_affecting()
        if stored != current:
            diff = sorted(
                k for k in set(stored) | set(current) if stored.get(k) != current.get(k)
            )
            raise SessionMismatch(
                "session config differs on %s; use a fresh --session-dir" % ", ".join(diff)
            )

    # ------------------------------------------------------------ artifacts

    def _artifact_path(self, name: str) -> Path:
        return self.root / ("%s.json" % name)

    @property
    def completed(self) -> List[str]:
        return list(self.manifest["completed"])

    def has_artifact(self, name: str) -> bool:
        return name in self.manifest["completed"] and self._artifact_path(name).exists()

    def save_artifacts(self, stage_name: str, artifacts: Dict[str, Any]) -> None:
        """Persist a completed stage's artifacts, then mark them durable."""
        for name, value in artifacts.items():
            dump, _ = ARTIFACT_CODECS[name]
            _atomic_write(self._artifact_path(name), {"artifact": name, "data": dump(value)})
        for name in artifacts:
            if name not in self.manifest["completed"]:
                self.manifest["completed"].append(name)
        if stage_name not in self.manifest.setdefault("stages", []):
            self.manifest["stages"].append(stage_name)
        self._write_manifest()

    def load_artifact(self, name: str) -> Any:
        _, load = ARTIFACT_CODECS[name]
        path = self._artifact_path(name)
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as exc:
            raise SessionError("unreadable artifact %s: %s" % (path, exc)) from exc
        return load(payload["data"])

    def persistable(self, names: Iterable[str]) -> List[str]:
        """Subset of ``names`` that have a registered codec."""
        return [n for n in names if n in ARTIFACT_CODECS]
