"""Every demo runs to completion and prints exactly the recorded output.

The digests are sha256 sums of each demo's stdout; a change that alters a
printed value (a join point, a verdict, an entropy) fails here.  Re-record a
digest only for a change that means to alter that demo's output.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

DIGESTS = {
    "01_distribution_monad.py": "5f722b8c9e851bacaa934d8ae648270542965029d28476bf09244bccae9f2964",
    "02_presented_sets_and_equality.py": "22bbafc4f5da133b20d7a8a31a9b34cb9b755cb26f92c52e98ea7e0afe860fd0",
    "03_join_and_tensor.py": "479e78e88b03be1dc1a8d43a4cf0606f0c3e25aac5b1cf8662bb9fb9ed2b3f2d",
    "04_props_and_operads.py": "d7a8f152f40f532c5d43931971e76f62d4f68d0393dad6c6b81f8b620ffd2113",
    "05_grothendieck.py": "ff5d2532c3823f34bfeb5b05b29764b58705c1a3c9e5053b32b78769f4ff8256",
    "06_entropy.py": "0fd8f5e1941616b9666ab326b5a585f8e580d5f11929394f443f94268bccd32c",
    "07_twisted_distributions.py": "fa7f7a33fae4bd6e6d506ff53f92f6a5ee098dbdbb6eb48d4f8b8ba7fd3846b1",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_is_unchanged(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        env=env,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr.decode()
    assert hashlib.sha256(out.stdout).hexdigest() == DIGESTS[name]
