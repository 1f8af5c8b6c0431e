"""What importing the CLI loads: every command pays for it at start-up."""

import os
import subprocess
import sys

import fairaudit

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fairaudit.__file__)))


def test_cli_import_skips_modules_only_some_commands_need():
    # statistics (normal quantiles) brings decimal and fractions and CSV ingest
    # buffers rows in an array, each imported where it is used; no command
    # needs concurrent.futures, as audits attack in one serial pass
    code = (
        "import sys, fairaudit.cli; "
        "print(' '.join(m for m in ('decimal', 'fractions', 'concurrent.futures', 'array') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""


def test_cli_import_skips_numpy_random_and_openssl():
    # numpy.random loads OpenSSL through secrets, several MB of peak RSS that
    # only the commands that draw random numbers need
    code = (
        "import sys, fairaudit.cli; "
        "print(' '.join(m for m in ('numpy.random', 'secrets', '_hashlib') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""
