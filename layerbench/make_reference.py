"""Regenerate ``reference.json``: the exact front of every catalogue entry.

Fronts come from the sequential explorer with default options.  The
script also checks that no two served specs are isomorphic, because an
isomorphic cold request would be answered from the result cache and
break the designed hit share of ``serve_mixed``.

Usage::

    python3 layerbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.canonical import canonical_digest  # noqa: E402
from repro.dse.explorer import explore  # noqa: E402

import catalogue  # noqa: E402


def main() -> int:
    entries = {}
    for entry in catalogue.all_entries():
        key = catalogue.catalogue_key(entry)
        if key in entries:
            continue
        spec = catalogue.build_spec(entry)
        result = explore(spec)
        entries[key] = {
            "digest": catalogue.spec_digest(spec),
            "front": [list(vector) for vector in result.vectors()],
        }
    served = [*catalogue.SERVE_HIT_CONFIGS, *catalogue.SERVE_COLD_CONFIGS]
    seen = {}
    for config in served:
        digest = canonical_digest(catalogue.build_spec(config))
        if digest in seen:
            print(f"{config.name()} is isomorphic to {seen[digest]}", file=sys.stderr)
            return 1
        seen[digest] = config.name()
    catalogue.REFERENCE_PATH.write_text(
        json.dumps({"entries": entries}, separators=(",", ":"), sort_keys=True) + "\n"
    )
    print(f"wrote {len(entries)} reference fronts to {catalogue.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
