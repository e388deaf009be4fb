"""Persistence of verification reports as run records.

Plain-text, line-oriented, schema-versioned files so diffs stay reviewable
in version control.  A record's run_id is the content hash of its config
echo plus the code version string, so identical configurations re-save as
no-ops and changed configurations get fresh files.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import NamedTuple

from .errors import ReportStoreError

__all__ = ["RunRecord", "make_record", "save", "load"]

_SCHEMA = "1"


class RunRecord(NamedTuple):
    run_id: str
    created_at: str
    version: str
    config_echo: str
    reports: str


def _run_id(config_echo: str, version: str) -> str:
    # Imported here, the one place that hashes: hashlib maps OpenSSL's
    # libcrypto, which a run that saves and loads no record never needs.
    import hashlib

    digest = hashlib.sha256()
    digest.update(config_echo.encode("utf-8"))
    digest.update(b"\n")
    digest.update(version.encode("utf-8"))
    return digest.hexdigest()[:16]


def make_record(config_echo: str, reports: str, version: str, created_at: str) -> RunRecord:
    # Trailing newlines are normalised away so a record round-trips through
    # the line-oriented file format field-for-field.
    config_echo = config_echo.rstrip("\n")
    reports = reports.rstrip("\n")
    return RunRecord(
        run_id=_run_id(config_echo, version),
        created_at=created_at,
        version=version,
        config_echo=config_echo,
        reports=reports,
    )


def _render(record: RunRecord) -> str:
    lines = [
        f"schema={_SCHEMA}",
        f"run_id={record.run_id}",
        f"created_at={record.created_at}",
        f"version={record.version}",
        "config-begin",
        record.config_echo,
        "config-end",
        "reports-begin",
        record.reports,
        "reports-end",
    ]
    return "\n".join(lines) + "\n"


def save(record: RunRecord, directory: str | Path) -> Path:
    """Atomic write (temp + rename); saving an identical record is a no-op."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"run-{record.run_id}.txt"
    if path.exists():
        existing = load(path)  # raises ReportStoreError on corruption
        if (existing.config_echo, existing.version, existing.reports) != (
            record.config_echo,
            record.version,
            record.reports,
        ):
            raise ReportStoreError(
                f"{path} already holds a different record for run_id {record.run_id}"
            )
        return path
    tmp = path.with_suffix(".tmp")
    try:
        tmp.write_text(_render(record), encoding="utf-8")
        os.replace(tmp, path)
    except OSError as exc:
        raise ReportStoreError(f"cannot write {path}: {exc}") from exc
    return path


def load(path: str | Path) -> RunRecord:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ReportStoreError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    if len(lines) < 8 or lines[0] != f"schema={_SCHEMA}":
        raise ReportStoreError(f"{path}: not a schema={_SCHEMA} run record")

    def _field(idx: int, key: str) -> str:
        if not lines[idx].startswith(key + "="):
            raise ReportStoreError(f"{path}: expected {key}= on line {idx + 1}")
        return lines[idx][len(key) + 1 :]

    run_id = _field(1, "run_id")
    created_at = _field(2, "created_at")
    version = _field(3, "version")
    try:
        cfg_start = lines.index("config-begin") + 1
        cfg_end = lines.index("config-end")
        rep_start = lines.index("reports-begin") + 1
        rep_end = lines.index("reports-end")
    except ValueError as exc:
        raise ReportStoreError(f"{path}: missing section markers") from exc
    config_echo = "\n".join(lines[cfg_start:cfg_end])
    reports = "\n".join(lines[rep_start:rep_end])
    if _run_id(config_echo, version) != run_id:
        raise ReportStoreError(f"{path}: run_id does not match contents (corrupted record)")
    return RunRecord(
        run_id=run_id,
        created_at=created_at,
        version=version,
        config_echo=config_echo,
        reports=reports,
    )
