"""The README's library example must run against the current API, and
its default config block must be the defaults, so that neither a signature
change nor a changed default can leave them stale."""

import re
from pathlib import Path

from modalstab.cli import RunConfig, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    text = README.read_text()
    section = text[text.index("## Library example"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs():
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    series = namespace["series"]
    assert namespace["summary"].n_unstable == 5
    assert series.linf.shape == namespace["trajectory"].times.shape
    assert namespace["rate"] > 0.0


def test_readme_config_block_is_the_defaults():
    text = README.read_text()
    section = text[text.index("Defaults reproduce the benchmark disk"):]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    assert parse_config(block) == RunConfig()
