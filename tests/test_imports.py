"""Third-party packages are loaded only where they are used.

A mock or replay ``translate``, ``parse`` and ``score`` never send a request,
read a YAML file or hash, so they load neither the HTTP stack, PyYAML nor
OpenSSL; every process pays for what it imports at start-up.  pytest has
already imported them, so each check runs in one fresh interpreter: first
the runs that must load none, then the uses that load each, which must
still work.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latexmt

from conftest import CORPUS, write_files

HEAVY = ("requests", "urllib3", "yaml", "_hashlib")  # _hashlib: OpenSSL, behind hashlib
# Prints one JSON object: for each run, which of HEAVY were loaded once it
# had run, and what each later use gave.
SCRIPT = """
import contextlib, io, json, sys
heavy, proj, out = sys.argv[1].split(","), sys.argv[2], sys.argv[3]
result = {"loaded": {"start": [name for name in heavy if name in sys.modules]}}
from latexmt import cli
result["loaded"]["import latexmt.cli"] = [name for name in heavy if name in sys.modules]
runs = {
    "translate --mock echo": ["translate", "--project", proj, "--mock", "echo", "--no-compile",
                              "--out", out + "/echo"],
    "translate --mock replay": ["translate", "--project", proj, "--mock", "replay",
                                "--replay-from", out + "/echo", "--no-compile",
                                "--out", out + "/replay"],
    "parse": ["parse", "--project", proj, "--out", out + "/parsed"],
    "score": ["score", out + "/doc.log"],
}
open(out + "/doc.log", "w").write("Output written on doc.pdf (1 page).\\n")
for name, argv in runs.items():
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, name
    result["loaded"][name] = [name for name in heavy if name in sys.modules]

open(out + "/run.yaml", "w").write("target_language: ja\\nmodel: from-file\\n")
printed = io.StringIO()
with contextlib.redirect_stdout(printed):
    result["config-check code"] = cli.main(["config-check", "--config", out + "/run.yaml"])
result["config-check"] = printed.getvalue()

from latexmt.config import load_config
from latexmt.errors import ConfigError
open(out + "/bad.yaml", "w").write("target_language: [unclosed\\n")
try:
    load_config(out + "/bad.yaml")
except ConfigError as exc:
    result["invalid YAML"] = str(exc)

from latexmt.llm import HttpBackend
session = HttpBackend("http://h")._session
result["session"] = f"{type(session).__module__}.{type(session).__name__}"
session.close()
print(json.dumps(result))
"""


@pytest.fixture(scope="module")
def fresh(tmp_path_factory) -> dict:
    """The script's result, run once on a small multi-file project."""
    tmp = tmp_path_factory.mktemp("imports")
    proj = write_files(tmp / "proj", CORPUS["multifile"])
    out = tmp / "out"
    out.mkdir()
    src = str(Path(latexmt.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, ",".join(HEAVY), str(proj), str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_a_run_without_an_endpoint_or_config_file_loads_no_third_party_package(fresh):
    runs = ["start", "import latexmt.cli", "translate --mock echo", "translate --mock replay",
            "parse", "score"]
    assert fresh["loaded"] == dict.fromkeys(runs, [])


def test_config_check_still_reads_and_prints_yaml(fresh):
    assert fresh["config-check code"] == 0
    printed = fresh["config-check"]
    assert "model: from-file\n" in printed and "target_language: ja\n" in printed
    assert printed.endswith("config ok\n")


def test_invalid_yaml_is_still_a_config_error(fresh):
    assert fresh["invalid YAML"].startswith("invalid YAML in ")


def test_an_http_backend_without_a_session_makes_a_requests_session(fresh):
    assert fresh["session"] == "requests.sessions.Session"
