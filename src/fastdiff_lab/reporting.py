"""Report bundles: CSV tables plus a JSON summary with provenance.

CSV dialect: comma-separated, '.' decimal, 17-significant-digit floats,
header row, newline-terminated rows.  Identical configs (including seeds)
produce byte-identical CSV bodies; wall time and versions live only in the
summary's provenance block, which also names the platform, the git commit
of the package's checkout (null outside one) and a sha256 of the resolved
config.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

__all__ = ["Table", "ReportBundle", "default_output_dir"]

ENV_OUT = "FASTDIFF_LAB_OUT"


def default_output_dir() -> str:
    return os.environ.get(ENV_OUT, "fastdiff-lab-out")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


@dataclass
class Table:
    name: str
    header: list[str]
    rows: list[list]

    def to_csv(self) -> str:
        lines = [",".join(self.header)]
        lines.extend(",".join(_fmt(v) for v in row) for row in self.rows)
        return "\n".join(lines) + "\n"


@dataclass
class ReportBundle:
    command: str
    config: dict
    summary: dict = field(default_factory=dict)
    tables: list[Table] = field(default_factory=list)
    started: float = field(default_factory=time.time)

    def add_table(self, name: str, header: list[str], rows: list[list]):
        self.tables.append(Table(name, header, rows))

    def table(self, name: str) -> Table:
        for t in self.tables:
            if t.name == name:
                return t
        raise KeyError(name)

    def write(self, directory: str, formats=("csv", "json")) -> list[str]:
        os.makedirs(directory, exist_ok=True)
        written = []
        if "csv" in formats:
            for t in self.tables:
                path = os.path.join(directory, f"{self.command}_{t.name}.csv")
                with open(path, "w") as fh:
                    fh.write(t.to_csv())
                written.append(path)
        if "json" in formats:
            payload = {
                "command": self.command,
                "summary": self.summary,
                "provenance": {
                    **_provenance(self.config),
                    "wall_time_s": time.time() - self.started,
                },
            }
            path = os.path.join(directory, f"{self.command}_summary.json")
            with open(path, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True, default=_fmt)
                fh.write("\n")
            written.append(path)
        return written


def _provenance(config: dict) -> dict:
    """The environment and the config a summary came from."""
    import hashlib
    import platform

    import numpy
    import scipy

    from . import __version__
    canonical = json.dumps(config, sort_keys=True, default=_fmt)
    return {
        "config": config,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "code_version": __version__,
        "git_sha": _git_sha(_CHECKOUT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": _platform_name(),
    }


def _platform_name() -> str:
    """``platform.platform()`` without resolving the processor, whose lookup
    starts a ``uname -p`` process.  On Linux that field prints the machine
    or "unknown", both of which platform() leaves out, so the string is
    the same; elsewhere this is platform() itself."""
    import platform

    uname = platform.uname()
    if uname.system != "Linux":
        return platform.platform()
    parts = (uname.system, uname.release, uname.machine, "with",
             "".join(platform.libc_ver()))
    # platform()'s clean-up of the joined fields
    name = "-".join(x.strip() for x in parts if x).replace(" ", "_")
    for ch in '/\\:;"()':
        name = name.replace(ch, "-")
    name = name.replace("unknown", "")
    while "--" in name:
        name = name.replace("--", "-")
    return name.rstrip("-")


# the checkout the package runs from, when it runs from src/ of one
_CHECKOUT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _git_sha(root: str) -> str | None:
    """The commit HEAD names in ``root``/.git, read from its files (no git
    process is started); None when there is none or it cannot be read."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head  # a detached HEAD holds the commit itself
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:  # no checkout, a .git file (worktree), unborn branch
        pass
    return None
