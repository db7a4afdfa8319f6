"""The experiment drivers in ``scripts/``, run as programs at the sizes of
CI's scripts smoke run: every report and ``table.txt`` each one writes is
pinned by its sha256, and a second run into the same ``--out-dir`` rewrites
them byte-identical."""
import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
RUN = ["--n-samples", "20", "--draws", "5"]
SYNTH = ["--candidates", "500", "--groups", "4", "--slots-per-group", "5", *RUN]

PINNED = {
    "run_two_block": (
        ["--candidates", "200", *RUN],
        {
            "matchrank-lazy.json": "2e969dc7380503e27f62ebee11f74e40aeac508325ba056dd3a00737aeee59b1",
            "and.json": "4efd4e4e7319c4d71530d804e1b50e17a607359b5b36a944838aea09f5669ea9",
            "or.json": "25b91800daa92e6a660b75e7d6049b6b14b167ff34e0c6d05394906a4410a972",
            "tr.json": "dab1c42eff20b2779cbff4039b012e3d0ea5a1301fcd56f62a5ca525839c8339",
            "ntr.json": "e0f681ba8b69657929de2528a499c427e49e0a1d1afd701297909b02a593abef",
            "random.json": "c749dddaff208caa9106446e76d43096e4f27323e74a729ba37ebfbaea1a697b",
            "table.txt": "2d67c22881bfa72df5734a3ce2ced6eec6183d2a1eb762d0b9742291bfca7dac",
        },
    ),
    "run_synthetic_table": (
        SYNTH,
        {
            "matchrank-lazy.json": "74c8ed43b2491ccc27b9a37476db3f7b90cc120a84445c96b7b745e931ea7de7",
            "and.json": "557c6c5fd5b294448fc72959b04b7e3fc0813cfca633d73654aab037a85e66bc",
            "or.json": "586c7244094c88d8059e5a9981e9ba986d9b64dd9b1b2c332c81314abcbce0aa",
            "tr.json": "67777e95e1c3a1364b1bb2505c48f53762d8286a9c409d9885100ed55ddc8efa",
            "ntr.json": "8d3829271d765d077732d4e015fbc1ce6aeaab06321c8ef67a6e62a3fe761fa0",
            "random.json": "63e283dffd1c3559ecc09a8a9a80bfdb46e398ca6b6605680ba51ba954c987cf",
            "table.txt": "d04e16d7e3ac5206bd5b764913ddca3d5964054d130b860ec95f800423ec538e",
        },
    ),
    "run_misspecification": (
        SYNTH,
        {
            "p_base_0.1.json": "4cc70e98c50b0770ce5d110a8eddf9feff41db443c5555d51b873b703bd18243",
            "p_base_0.2.json": "4db9a3c24a6fe1c25ad6ffa84118c94531809037d838566f62a4f99f2693574c",
            "p_base_0.3.json": "025ff2374519cf3254a72c91803be93d4df1b86a6226d25ca64457e5db27123a",
            "p_base_0.4.json": "49c2c175f032b81af2e69cd3756669e83c2c7d6e64ccfb5fae4a80ba143b77d3",
            "p_base_0.5.json": "015fcc671fbf345f4d30f491900a40c2ec7bccdd76cd28a6e815b1400752ade6",
            "table.txt": "ed38204d0f7306522307cbc5909ecc4351f41e008bdf1d28e710033a856078ed",
        },
    ),
}


def digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


@pytest.mark.parametrize("script", sorted(PINNED))
def test_driver_outputs_are_pinned_and_rewritten_identically(tmp_path, script):
    flags, pinned = PINNED[script]
    out = tmp_path / script
    argv = [sys.executable, str(SCRIPTS / f"{script}.py"), *flags, "--out-dir", str(out)]
    subprocess.run(argv, check=True, capture_output=True, timeout=120)
    first = digests(out)
    assert first == pinned
    subprocess.run(argv, check=True, capture_output=True, timeout=120)
    assert digests(out) == first
