#!/usr/bin/env python3
"""Quickstart: QinDB's mutated key-value operations in five minutes.

Shows the storage engine at the heart of DirectLoad:

* versioned puts, including *deduplicated* (value-less) puts;
* GET's traceback through deduplicated versions;
* flag-only deletes and the referent rule (a deleted value survives as
  long as a newer deduplicated version resolves to it);
* the write-amplification counters the paper's Figure 5 plots.

Run:  python examples/quickstart.py
"""

from repro import QinDB, QinDBConfig


def main() -> None:
    # A 256 MB simulated SSD with 4 MB append-only files.
    db = QinDB.with_capacity(
        256 * 1024 * 1024, config=QinDBConfig(segment_bytes=4 * 1024 * 1024)
    )

    # Version 1: the crawler saw this page, the pipeline built its entry.
    url = b"https://example.cn/page/42"
    db.put(url, 1, b"w1 w2 w3 (the page's terms, version 1)")

    # Version 2: the page did not change, so Bifrost deduplicated it —
    # only the key arrives.  GET resolves it by traceback.
    db.put(url, 2, None)
    assert db.get(url, 2) == db.get(url, 1)
    print("v2 (deduplicated) resolves to:", db.get(url, 2).decode())

    # Version 3: the page changed; a complete pair arrives.
    db.put(url, 3, b"w1 w9 w3 (the page's terms, version 3)")
    print("v3 (fresh value)          :", db.get(url, 3).decode())

    # Retention deletes version 1.  The delete only flags the item — and
    # because version 2 still tracebacks to version 1's value, the lazy
    # GC will keep that value alive until version 2 goes too.
    db.delete(url, 1)
    print("after deleting v1, v2 still reads:", db.get(url, 2).decode())

    # Sorted range scans — the reason the memtable is a sorted index, not
    # a hash table.
    for index in range(5):
        db.put(f"https://example.cn/page/{index:02d}".encode(), 1, b"v")
    found = [key.decode() for key, _version, _value in db.scan(
        b"https://example.cn/page/01", b"https://example.cn/page/04"
    )]
    print("range scan:", found)

    # The counters every experiment is built from.
    db.flush()  # push the buffered partial page onto flash
    stats = db.stats()
    print(f"\nuser bytes written      : {stats.user_bytes_written}")
    print(f"AOF bytes appended      : {stats.aof_bytes_appended}")
    print(f"software write amp      : {stats.software_write_amplification:.2f}x")
    print(f"hardware write amp      : {stats.hardware_write_amplification:.2f}x")
    print(f"disk used (block-align) : {stats.disk_used_bytes} bytes")
    print(f"memtable items          : {stats.memtable_items}")
    print(f"simulated device time   : {stats.now * 1000:.2f} ms")


if __name__ == "__main__":
    main()
