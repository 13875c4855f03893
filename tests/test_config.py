"""The run configuration: field bounds, env switches, and the surface guard."""

import ast
import re
from pathlib import Path

import pytest

from repro.config import RunConfig
from repro.errors import ConfigurationError

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENV_SWITCHES = {
    "REPRO_TRACE", "REPRO_VCPUS", "REPRO_EXPERIMENT_CACHE", "REPRO_WALK_CACHE",
}


def test_defaults():
    cfg = RunConfig()
    assert cfg == RunConfig(
        quick=False, fleet_hosts=3, fleet_vms=6, serverless_instances=400,
        overcommit_ratios=(1.0, 1.5, 2.0, 3.0),
    )
    assert RunConfig(quick=True).serverless_instances == 80
    assert RunConfig(quick=True, serverless_instances=7).serverless_instances == 7


def test_frozen_and_hashable():
    cfg = RunConfig(quick=True)
    with pytest.raises(AttributeError):
        cfg.quick = False
    assert hash(cfg) == hash(RunConfig(quick=True))


@pytest.mark.parametrize("spelling", ["1.0,2.5", " 1.0 , 2.5 ,", [1, "2.5"],
                                      (1.0, 2.5)])
def test_ratio_spellings(spelling):
    assert RunConfig(overcommit_ratios=spelling).overcommit_ratios == (1.0, 2.5)


@pytest.mark.parametrize(
    "field, value",
    [
        ("quick", 1),
        ("fleet_hosts", 1),
        ("fleet_hosts", 2.0),
        ("fleet_vms", 0),
        ("fleet_vms", True),
        ("serverless_instances", 0),
        ("serverless_instances", "80"),
        ("overcommit_ratios", "0.5"),
        ("overcommit_ratios", "abc"),
        ("overcommit_ratios", ","),
        ("overcommit_ratios", ()),
        ("overcommit_ratios", (1.0, float("nan"))),
        ("overcommit_ratios", 2.0),
    ],
)
def test_bad_field_rejected_by_name(field, value):
    with pytest.raises(ConfigurationError, match=field):
        RunConfig(**{field: value})


def _environ_reads(tree: ast.AST) -> int:
    """Count ``os.environ`` / ``os.getenv`` / ``from os import ...`` uses."""
    n = 0
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            n += 1
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            n += sum(a.name in ("environ", "getenv") for a in node.names)
    return n


def _switch_names(tree: ast.AST) -> set[str]:
    """Literal variable names passed to ``env_flag`` / ``env_int``."""
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("env_flag", "env_int")):
            arg = node.args[0]
            assert isinstance(arg, ast.Constant), ast.dump(node)
            names.add(arg.value)
    return names


def test_configuration_surface():
    """The environment is read only in repro/config.py, and only for the
    four switches the DESIGN.md Configuration table lists."""
    readers, names = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if _environ_reads(tree):
            readers.add(path.relative_to(SRC).as_posix())
        names |= _switch_names(tree)
    assert readers == {"repro/config.py"}
    assert names == ENV_SWITCHES
    design = (ROOT / "DESIGN.md").read_text()
    section = re.search(r"^## [\d. ]*Configuration$(.*?)(?=^## |\Z)", design,
                        re.M | re.S).group(1)
    assert set(re.findall(r"^\| `(REPRO_\w+)`", section, re.M)) == ENV_SWITCHES
