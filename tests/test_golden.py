"""Byte identity of the tree JSON.

Every speed-up of the kernel or the driver must leave ``to_json()`` byte for
byte as it was.  These SHA-256 digests pin it for a few bundled inputs at the
default truncation; a change that alters the JSON on purpose (a new format)
updates them in the same change and says why.
"""

import hashlib

import pytest

from resolvkit.parse import parse_many
from resolvkit.resolve import (
    RunConfig,
    monomialize_principal,
    rectilinearize,
    resolve_hypersurface,
)

RUNS = {
    "resolve": resolve_hypersurface,
    "monomialize": monomialize_principal,
    "rectilinearize": rectilinearize,
}

GOLDEN = [
    pytest.param(
        "resolve", ["y^2 - x^3"],
        "f5bd8d93244a37dd11016b87384f48831494b7e7400f10363a30daf0add61413",
        id="resolve-cusp",
    ),
    pytest.param(
        "resolve", ["z^2 - x^5 - y^5"],
        "793ebd9a151e2621ac214bb64bf16d2197d548826b7d15ad190396b370499aae",
        id="resolve-z2-x5-y5",
    ),
    pytest.param(
        "monomialize", ["y^2 - x^3"],
        "e41c59095ca4e4ea0a3caf7f71d3771342d45b6191c6d69a54b69519fc9a45cb",
        id="monomialize-cusp",
    ),
    pytest.param(
        "rectilinearize", ["x", "y", "x - y"],
        "2002fd5ef8c2bbba6a6a97498f5fe67052a0eba8805d58a05bbd072a036cba30",
        id="rectilinearize-three-lines",
    ),
]


@pytest.mark.parametrize("mode, exprs, digest", GOLDEN)
def test_tree_json_digest(mode, exprs, digest):
    jets, names = parse_many(exprs, None, 24)
    arg = jets if mode == "rectilinearize" else jets[0]
    tree = RUNS[mode](arg, RunConfig(truncation=24), names)
    assert hashlib.sha256(tree.to_json().encode()).hexdigest() == digest
