"""Seeded corpora for the jsontool benchmark.

Every function here is a pure function of its seed: the same seed gives
byte-identical files. The tweets and orders corpora come from the
toolkit's own generator (`jsontool generate`), the sparse attribute bags
are generated here. Seeded faults (schema-violating orders, malformed
sparse lines) are applied here too, so the program only ever sees the
finished files.

    python3 corpora.py WORKLOAD SEED DOCS DIR JSONTOOL ORDERS_SCHEMA

writes the workload's files into DIR and prints their description as
JSON (paths, bytes, documents, seeded faults).
"""

import json
import os
import random
import subprocess
import sys

SPARSE_KEYS = 256
SPARSE_KINDS = ["null", "boolean", "integer", "number", "string", "array", "object"]
WORDS = ["alpha", "bravo", "delta", "echo", "golf", "hotel", "india", "kilo",
         "lima", "mike", "oscar", "papa", "romeo", "sierra", "tango", "zulu"]


def _key(i):
    return "attr_%03d" % i


def sparse_key_kinds(seed):
    """The value kinds each key of the pool may take: two to four of
    SPARSE_KINDS, fixed per key for a given seed."""
    rng = random.Random(seed * 7919 + 1)
    return [sorted(rng.sample(range(len(SPARSE_KINDS)), rng.randint(2, 4)))
            for _ in range(SPARSE_KEYS)]


def _sparse_value(rng, kind):
    name = SPARSE_KINDS[kind]
    if name == "null":
        return "null"
    if name == "boolean":
        return "true" if rng.random() < 0.5 else "false"
    if name == "integer":
        return str(rng.randrange(-1000000, 1000000))
    if name == "number":
        return "%d.%03d" % (rng.randrange(-9999, 9999), rng.randrange(1, 1000))
    if name == "string":
        return '"%s %s"' % (rng.choice(WORDS), rng.choice(WORDS))
    if name == "array":
        return "[" + ",".join(str(rng.randrange(1000)) for _ in range(rng.randint(1, 3))) + "]"
    return '{"v":%d}' % rng.randrange(1000)


def sparse(seed, count, malformed_every=1000):
    """`count` attribute bags, each a seeded subset of a 256-key pool with
    per-key value kinds. Every document has a distinct type: a
    (key, kind) signature that repeats is drawn again. One line in
    `malformed_every` has its first ':' replaced by '=', a syntax error
    confined to that line. Returns (text, malformed line count)."""
    kinds = sparse_key_kinds(seed)
    rng = random.Random(seed)
    seen = set()
    lines = []
    malformed = 0
    while len(lines) < count:
        keys = sorted(rng.sample(range(SPARSE_KEYS), rng.randint(6, 14)))
        picks = [(k, rng.choice(kinds[k])) for k in keys]
        sig = tuple(picks)
        if sig in seen:
            continue
        seen.add(sig)
        line = "{" + ",".join('"%s":%s' % (_key(k), _sparse_value(rng, kind))
                              for k, kind in picks) + "}"
        if len(lines) % malformed_every == malformed_every // 2:
            line = line.replace(":", "=", 1)
            malformed += 1
        lines.append(line)
    return "".join(l + "\n" for l in lines), malformed


def sparse_schema(seed):
    """The schema the sparse corpus is checked against: every pool key
    with exactly the kinds the generator may give it, nothing else."""
    props = {}
    for i, ks in enumerate(sparse_key_kinds(seed)):
        names = [SPARSE_KINDS[k] for k in ks]
        node = {"type": names}
        if "array" in names:
            node["items"] = {"type": "integer"}
        if "object" in names:
            node["properties"] = {"v": {"type": "integer"}}
            node["required"] = ["v"]
            node["additionalProperties"] = False
        props[_key(i)] = node
    return json.dumps({"type": "object", "properties": props,
                       "additionalProperties": False}, indent=1) + "\n"


def violate_orders(text, seed, every=100):
    """Make one order in `every` invalid under the clean corpus's inferred
    schema: alternately retype `quantity` to a string, or drop the
    required `order_date`. Returns (text, violating document count)."""
    rng = random.Random(seed * 31 + 7)
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    bad = 0
    for i in range(rng.randrange(every), len(lines), every):
        doc = json.loads(lines[i])
        if bad % 2 == 0:
            doc["quantity"] = str(doc["quantity"])
        else:
            del doc["order_date"]
        lines[i] = json.dumps(doc, separators=(",", ":"))
        bad += 1
    return "".join(l + "\n" for l in lines), bad


def make(workload, seed, n, work, jsontool, orders_schema):
    """Write the corpus of `workload` (`n` documents), its first document
    alone, and its schema into `work`."""
    inp = {"input": os.path.join(work, "input.ndjson"),
           "one": os.path.join(work, "one.ndjson"),
           "schema": None, "faults": 0}
    if workload == "check-sparse-j2":
        text, inp["faults"] = sparse(seed, n)
        inp["schema"] = os.path.join(work, "schema.json")
        with open(inp["schema"], "w") as f:
            f.write(sparse_schema(seed))
    else:
        kind = "tweets" if workload == "infer-tweets" else "orders"
        text = subprocess.run([jsontool, "generate", "-c", kind, "-n", str(n),
                               "--seed", str(seed)], stdout=subprocess.PIPE,
                              check=True).stdout.decode()
        if workload == "validate-orders":
            text, inp["faults"] = violate_orders(text, seed)
            inp["schema"] = orders_schema
    with open(inp["input"], "w") as f:
        f.write(text)
    with open(inp["one"], "w") as f:
        f.write(text[:text.index("\n") + 1])
    inp["bytes"] = len(text.encode())
    inp["docs"] = text.count("\n")
    return inp


if __name__ == "__main__":
    w, seed, n, work, jsontool, orders_schema = sys.argv[1:]
    print(json.dumps(make(w, int(seed), int(n), work, jsontool, orders_schema)))
