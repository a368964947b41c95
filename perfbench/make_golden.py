"""Write golden.json: float64-oracle top-5 logits of the default seed's first
image, in train and deploy form.

Every run checks the program's float64 oracle against this file, which
catches a kernel fault that corrupts float32 and float64 alike.  Rewrite it
only when the model's defined output is meant to change.

    python3 perfbench/make_golden.py
"""

import json
import sys

import phases as P
from run import ROOT

if __name__ == "__main__":
    P.import_mvt2(ROOT)
    golden = {"variant": P.VARIANT, "seed": P.DEFAULT_SEED, "image": 0}
    for form in ("train", "deploy"):
        golden[form] = P.golden_entry(P.default_seed_oracle(form))
    P.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    sys.exit(0)
