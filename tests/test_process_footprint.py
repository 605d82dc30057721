"""Process footprint: campaign processes must not load SciPy or NumPy.

Every CLI invocation, socket worker and forked worker imports
``repro.core``; loading ``scipy.stats`` (and NumPy through it) there costs
each of them over a second of start-up and ~80 MiB of resident memory for
a normal quantile that only adaptive sampling and the sampling statistics
use.  The check runs in a fresh interpreter, since other tests may already
have imported SciPy into this one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)

SCRIPT = """
import json, sys
import repro.core.cli, repro.core.coordinator, repro.core.parallel
from repro.core.campaign import CampaignConfig, run_campaign

HEAVY = ("scipy", "numpy")

def loaded():
    return sorted(name for name in HEAVY if name in sys.modules)

config = CampaignConfig(workloads=("stringsearch",), components=("regfile",),
                        cardinalities=(1,), samples=1, seed=0)
report = {"import": loaded()}
run_campaign(config)
report["serial"] = loaded()
run_campaign(config, jobs=2)
report["jobs2"] = loaded()

from repro.core.sampling import sample_size
sample_size(10**6, 0.03)
report["after_sample_size"] = loaded()
print(json.dumps(report))
"""


def test_campaign_processes_import_no_scipy_or_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=True,
    )
    report = json.loads(proc.stdout)
    assert report["import"] == []
    assert report["serial"] == []
    assert report["jobs2"] == []
    # The quantile is the one place SciPy is needed, and it still loads.
    assert "scipy" in report["after_sample_size"]
