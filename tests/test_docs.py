"""Doc-rot guard: the docs only name commands and surfaces that exist."""

import os
import re
from pathlib import Path

from repro.experiments import EXPERIMENTS

ROOT = Path(__file__).resolve().parents[1]

#: Where readers are told what to type.
COMMAND_DOCS = (
    "README.md",
    "EXPERIMENTS.md",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
)
SUBCOMMANDS = set(EXPERIMENTS) | {"list", "all", "campaign", "scenario", "serve"}

#: Surfaces that were deleted (in favour of ``benchmarks/suite``; as
#: unreachable, PR 21).  The histories and this file may name them;
#: nothing else may.
RETIRED = (
    "benchmarks/results", "repro.perf", "campus-scaling",
    "repro.sim.process", "repro.sim.monitor", "sim/process.py", "sim/monitor.py",
)
HISTORY = {"CHANGES.md", "ROADMAP.md", "ISSUE.md", "tests/test_docs.py"}
TEXT_SUFFIXES = {".py", ".md", ".yml", ".json", ".txt", ".gitignore"}
SCRATCH_DIRS = {
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".repro-cache",
    "out",
}


def test_documented_subcommands_exist():
    for doc in COMMAND_DOCS:
        text = (ROOT / doc).read_text()
        named = set(re.findall(r"python -m repro ([a-z][\w-]*)", text))
        assert named, f"{doc}: no `python -m repro <name>` found"
        assert named <= SUBCOMMANDS, (
            f"{doc} names {sorted(named - SUBCOMMANDS)}, which "
            "`python -m repro` does not offer"
        )


def test_no_file_names_a_retired_surface():
    stale = []
    for folder, subfolders, names in os.walk(ROOT):
        subfolders[:] = [d for d in subfolders if d not in SCRATCH_DIRS]
        for path in (Path(folder) / name for name in names):
            rel = path.relative_to(ROOT).as_posix()
            if (path.suffix or path.name) in TEXT_SUFFIXES and rel not in HISTORY:
                text = path.read_text()
                stale += [f"{rel}: {word}" for word in RETIRED if word in text]
    assert not stale, stale
