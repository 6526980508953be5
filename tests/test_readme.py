"""Every ```python block of README.md runs, in order, in one namespace, and
the ```ini block names every loader key."""
import configparser
import re
from dataclasses import asdict
from pathlib import Path

from fedincentives.config import _GAME
from fedincentives.experiments import ExperimentConfig
from fedincentives.learning import LearnConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    namespace: dict = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k + 1}", "exec"), namespace)


def test_readme_ini_block_names_the_loader_keys():
    block = re.search(r"^```ini\n(.*?)^```", README.read_text(), re.S | re.M).group(1)
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    parser.read_string(block)
    assert set(parser["game"]) == set(_GAME)
    assert set(parser["learning"]) == set(asdict(LearnConfig()))
    assert set(parser["experiment"]) == set(asdict(ExperimentConfig()))
