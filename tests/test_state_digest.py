"""`tests/state_digest.py` prints the digests recorded beside it.

`state_digest.expected` holds one `numeric_domain` line, the JSON of
`vidchain.cli.numeric_domain()` where the digests were taken, then the
script's output.  This runs the script in a child process and compares
its output with the rest of the file, line by line; on another numeric
domain, whose float64 bits may differ, it skips.  A change that declares
new trained bytes rewrites the file, so its diff shows the new digests:

    python -c 'import json; from vidchain.cli import numeric_domain;
    print("numeric_domain\\t" + json.dumps(numeric_domain(), sort_keys=True))'
    python tests/state_digest.py

(with `src` on the path for the first; their outputs, in that order).
"""

import json
import os
import subprocess
import sys

import pytest

from vidchain.cli import numeric_domain

HERE = os.path.dirname(os.path.abspath(__file__))


def test_state_digest_matches_expected():
    with open(os.path.join(HERE, "state_digest.expected"), encoding="utf-8") as fh:
        header, *expected = fh.read().splitlines()
    name, recorded = header.split("\t")
    assert name == "numeric_domain"
    if json.loads(recorded) != numeric_domain():
        pytest.skip(f"digests recorded in numeric domain {recorded}, "
                    f"this is {json.dumps(numeric_domain(), sort_keys=True)}")
    run = subprocess.run([sys.executable, os.path.join(HERE, "state_digest.py")],
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    got = run.stdout.splitlines()
    differ = [f"{want!r} != {line!r}" for want, line in zip(expected, got)
              if want != line]
    assert not differ and len(got) == len(expected), "\n".join(differ)
