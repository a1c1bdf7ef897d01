"""One resolution rule for where run artefacts go.

Every writer (metrics, profiles, checkpoints, telemetry, event
exports) resolves its output directory here: ``REPRO_ARTIFACT_DIR``
when set, else ``benchmarks/out`` under the current directory.
"""

from __future__ import annotations

import os
import pathlib

ARTIFACT_DIR_ENV = "REPRO_ARTIFACT_DIR"
DEFAULT_ARTIFACT_DIR = pathlib.Path("benchmarks") / "out"


def artifact_dir() -> pathlib.Path:
    """The directory run artefacts are written to (not created here)."""
    value = os.environ.get(ARTIFACT_DIR_ENV, "").strip()
    return pathlib.Path(value) if value else DEFAULT_ARTIFACT_DIR


def artifact_path(name: str, suffix: str = ".json") -> pathlib.Path:
    """Full path of one artefact file under :func:`artifact_dir`."""
    return artifact_dir() / f"{name}{suffix}"


def ensure_artifact_dir() -> pathlib.Path:
    """Create (if needed) and return the artefact directory."""
    root = artifact_dir()
    root.mkdir(parents=True, exist_ok=True)
    return root
