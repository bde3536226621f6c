#!/usr/bin/env python3
"""Record the reference exit code and stdout digest of every job variant.

    python3 bench/make_references.py

Run it on the commit whose outputs are the reference. Each job runs twice
and must print the same bytes both times; a job with a planted relation must
report it, so references cannot be recorded from code that lost it.
"""

import hashlib
import json

import run
import workloads


def main():
    cli_main = run.import_cli()
    refs = {}
    for job in workloads.all_jobs():
        if job.key in refs:
            continue
        code, stdout, error, _ = run.run_job(cli_main, job)
        again = run.run_job(cli_main, job)
        if error is not None or again[:3] != (code, stdout, error):
            raise SystemExit(f"{job.key}: {error or 'output differs between two calls'}")
        if not workloads.planted_ok(job, stdout):
            raise SystemExit(f"{job.key}: planted relation {job.planted} not found")
        data = stdout.encode("utf-8")
        refs[job.key] = {"exit": code, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        print(f"{code} {len(data):7d} {job.key}", flush=True)
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
