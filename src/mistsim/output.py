"""The one format of every result file mistsim writes.

Tables are CSV after ``# `` comment lines, with every number written ``.12g``;
records are JSON with a two-space indent, sorted keys and a trailing newline.
"""

from __future__ import annotations

import json

from . import __version__

__all__ = ["write_table", "json_text", "write_json", "provenance"]


def write_table(path, header_lines, columns, rows) -> None:
    """``# `` header lines, one comma-joined column row, then one line per row.

    A column name that is a number is written like a value.
    """
    with open(path, "w") as fh:
        for line in header_lines or []:
            fh.write(f"# {line}\n")
        fh.write(",".join(c if isinstance(c, str) else f"{c:.12g}" for c in columns) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.12g}" for v in row) + "\n")


def json_text(record: dict) -> str:
    return json.dumps(record, indent=2, sort_keys=True)


def write_json(path, record: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json_text(record) + "\n")


def provenance(config_hash: str, units: str) -> list[str]:
    """Header lines naming the config, the tool version and the units."""
    return [f"config_hash: {config_hash}", f"tool_version: {__version__}", f"units: {units}"]
