#!/usr/bin/env python3
"""Copies `reproduce --json` records without their wall-clock `timing`
section, one array item per line, so that two runs' charged counts can be
compared with `diff`.

    python3 crates/bench/baseline/strip_timing.py RECORDS_DIR OUT_DIR

CI strips a fresh `reproduce --quick --json` run this way and diffs it
against `crates/bench/baseline/quick/`; a change that moves a count
re-records that directory by running the same two commands with
`OUT_DIR = crates/bench/baseline/quick`.
"""

import json
import pathlib
import sys

src, dst = (pathlib.Path(arg) for arg in sys.argv[1:3])
dst.mkdir(parents=True, exist_ok=True)
for path in sorted(src.glob("*.json")):
    record = json.loads(path.read_text())
    record.pop("timing", None)
    fields = []
    for key, value in record.items():
        if isinstance(value, list):
            items = "".join(f"\n    {json.dumps(item, ensure_ascii=False)}," for item in value)
            value = f"[{items.rstrip(',')}\n  ]" if value else "[]"
        else:
            value = json.dumps(value, ensure_ascii=False)
        fields.append(f"  {json.dumps(key)}: {value}")
    (dst / path.name).write_text("{\n" + ",\n".join(fields) + "\n}\n")
