"""The package's public names: each imported from its module on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import springleg

from conftest import CONFIG_DIR

DEMO = str(CONFIG_DIR / "four_squat_demo.cfg")
SRC = str(Path(springleg.__file__).resolve().parent.parent)


@pytest.mark.parametrize("name", springleg.__all__)
def test_public_name_is_the_defining_modules_object(name):
    module = importlib.import_module(f"springleg.{springleg._MODULE_OF[name]}")
    assert getattr(springleg, name) is getattr(module, name)
    assert name in vars(springleg)  # kept, so that later lookups are plain reads


def test_dir_and_star_import_cover_all():
    listed = [name for names in springleg._MODULES.values() for name in names.split()]
    assert len(listed) == len(springleg.__all__)  # no name under two modules
    assert set(springleg.__all__) <= set(dir(springleg))
    namespace = {}
    exec("from springleg import *", namespace)
    assert set(springleg.__all__) <= set(namespace)
    assert springleg.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        getattr(springleg, "no_such_name")


#: Runs ``cli.main`` on its arguments, then prints the exit status and
#: whether numpy was imported.
PROBE = """
import sys
from springleg.cli import main
status = main(sys.argv[1:])
print(status, "numpy" in sys.modules)
"""


@pytest.mark.parametrize(
    "command, loads_numpy",
    [("baseline", False), ("sweep", False), ("simulate", True)],
)
def test_plain_float_commands_import_no_numpy(tmp_path, command, loads_numpy):
    # A fresh interpreter: this one has numpy loaded already.
    arguments = {
        "baseline": [],
        "sweep": ["--grid", str(tmp_path / "design.grid"), "--out", str(tmp_path)],
        "simulate": ["--out", str(tmp_path)],
    }[command]
    # A pitch below 1e-4 is a sweep CSV cell that %.9g would print with an exponent.
    (tmp_path / "design.grid").write_text(
        "force_cap_n = 150, 200, 250, 300, 350\nspring_stiffness_n_per_m = 800, 1000, 1200\n"
        "ratchet_pitch_m = 0.00009, 0.001\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", PROBE, command, "--config", DEMO, *arguments],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"0 {loads_numpy}"
