"""``scripts/primitive_footprint.py`` runs and reports every phase of a suite pass."""

import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "primitive_footprint.py")


def test_one_pass_names_the_hot_primitives_and_the_remainder():
    child = subprocess.run([sys.executable, SCRIPT, "--passes", "1", "--top", "40"],
                           capture_output=True, text=True, check=True, timeout=300)
    lines = child.stdout.splitlines()
    assert lines[0].startswith("15 tasks, best of 1 serial passes:")
    rows = [line.split() for line in lines[2:]]
    phases = {(row[2], row[3]) for row in rows if len(row) == 4}
    assert ("fit", "xgboost.XGBClassifier") in phases
    assert ("fit", "xgboost.XGBRegressor") in phases
    assert ("produce", "keras.applications.mobilenet.MobileNet") in phases
    assert lines[-1].endswith("outside any step")
    shares = [float(row[1].rstrip("%")) for row in rows]
    assert abs(sum(shares) - 100.0) < 1.0  # the steps and the remainder are the pass


def test_passes_below_one_are_rejected():
    child = subprocess.run([sys.executable, SCRIPT, "--passes", "0"],
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 2 and "--passes must be at least 1" in child.stderr
