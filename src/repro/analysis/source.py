"""Source providers: where module text comes from.

The slicer is a pure function of ``{module name: source text}``; the
providers here produce that mapping from three places:

* :func:`live_sources` — the files backing the currently imported
  ``repro`` package (what ``repro analyze`` reads);
* :class:`TreeSource` — an on-disk checkout (a repo root containing
  ``src/repro/...`` or a bare ``repro/...`` package directory);
* :class:`GitSource` — a git ref of the current repository, read with
  ``git show`` (no checkout needed for the static phase;
  :meth:`GitSource.materialize` extracts a full tree when diff-run must
  actually execute campaigns from it).
"""

from __future__ import annotations

import subprocess
from pathlib import Path
from typing import Dict, Optional, Sequence


def module_relpath(module: str) -> str:
    """Repo-relative path of a module inside the ``src`` layout."""
    return "src/%s.py" % module.replace(".", "/")


class SourceProvider:
    """Read module source text from somewhere."""

    label = "?"

    def read(self, module: str) -> str:
        raise NotImplementedError

    def sources(self, modules: Sequence[str]) -> Dict[str, str]:
        return {m: self.read(m) for m in modules}


class TreeSource(SourceProvider):
    """Modules from an on-disk source tree.

    ``root`` may be a repository root (``<root>/src/repro/...``) or a
    directory that directly contains the package (``<root>/repro/...``).
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.label = str(root)

    def _path(self, module: str) -> Path:
        rel = Path(module.replace(".", "/") + ".py")
        for base in (self.root / "src", self.root):
            candidate = base / rel
            if candidate.is_file():
                return candidate
        raise FileNotFoundError(
            "module %s not found under %s (tried src/%s and %s)" % (module, self.root, rel, rel)
        )

    def read(self, module: str) -> str:
        return self._path(module).read_text(encoding="utf-8")


class GitSource(SourceProvider):
    """Modules from a git ref of ``repo`` (defaults to the cwd repo)."""

    def __init__(self, ref: str, repo: Optional[Path] = None) -> None:
        self.ref = ref
        self.repo = Path(repo) if repo is not None else Path.cwd()
        self.label = ref

    def _git(self, *argv: str) -> bytes:
        return subprocess.check_output(
            ["git"] + list(argv), cwd=str(self.repo), stderr=subprocess.PIPE
        )

    def exists(self) -> bool:
        try:
            self._git("rev-parse", "--verify", "--quiet", "%s^{commit}" % self.ref)
            return True
        except subprocess.CalledProcessError:
            return False

    def read(self, module: str) -> str:
        try:
            blob = self._git("show", "%s:%s" % (self.ref, module_relpath(module)))
        except subprocess.CalledProcessError as exc:
            raise FileNotFoundError(
                "module %s not found at git ref %s" % (module, self.ref)
            ) from exc
        return blob.decode("utf-8")

    def materialize(self, dest: Path) -> Path:
        """Extract the full tree of ``ref`` into ``dest`` (for running
        campaigns from a historical revision); returns ``dest``."""
        dest.mkdir(parents=True, exist_ok=True)
        archive = self._git("archive", "--format=tar", self.ref)
        import io
        import tarfile

        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(str(dest))
        return dest


def resolve_provider(spec: str, repo: Optional[Path] = None) -> SourceProvider:
    """Interpret a diff-run operand: an existing directory wins, anything
    else must be a resolvable git ref."""
    path = Path(spec)
    if path.is_dir():
        return TreeSource(path)
    git = GitSource(spec, repo=repo)
    if git.exists():
        return git
    raise ValueError("%r is neither a source-tree directory nor a git ref" % spec)


def live_sources(modules: Sequence[str]) -> Dict[str, str]:
    """Source text of the given modules as currently importable — read
    from the files backing the installed ``repro`` package."""
    import repro

    pkg_root = Path(repro.__file__).resolve().parent.parent  # .../src
    out: Dict[str, str] = {}
    for module in modules:
        out[module] = (pkg_root / (module.replace(".", "/") + ".py")).read_text(encoding="utf-8")
    return out

