package dnsdb

import (
	"net/netip"
	"sort"

	"behaviot/internal/snapio"
)

// dbSnapVersion guards the resolver-state wire format.
const dbSnapVersion = 1

// EncodeSnapshot serializes the learned IP→domain entries and the
// static reverse-DNS fallback table, both in sorted address order so
// snapshot bytes never depend on map iteration.
func (d *DB) EncodeSnapshot(w *snapio.Writer) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	w.U8(dbSnapVersion)

	addrs := make([]netip.Addr, 0, len(d.entries))
	for a := range d.entries {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Compare(addrs[j]) < 0 })
	w.Uint(uint64(len(addrs)))
	for _, a := range addrs {
		e := d.entries[a]
		w.Addr(a)
		w.String(e.domain)
		w.U8(uint8(e.source))
	}

	revs := make([]netip.Addr, 0, len(d.reverse))
	for a := range d.reverse {
		revs = append(revs, a)
	}
	sort.Slice(revs, func(i, j int) bool { return revs[i].Compare(revs[j]) < 0 })
	w.Uint(uint64(len(revs)))
	for _, a := range revs {
		w.Addr(a)
		w.String(d.reverse[a])
	}
}

// DecodeSnapshot replaces the database contents with the snapshot's.
func (d *DB) DecodeSnapshot(r *snapio.Reader) {
	if v := r.U8(); v != dbSnapVersion && r.Err() == nil {
		r.Fail("dnsdb snapshot version %d (want %d)", v, dbSnapVersion)
	}
	entries := make(map[netip.Addr]entry)
	n := r.Length(3)
	for i := 0; i < n && r.Err() == nil; i++ {
		a := r.Addr()
		dom := r.String()
		src := Source(r.U8())
		if r.Err() == nil {
			entries[a] = entry{domain: dom, source: src}
		}
	}
	reverse := make(map[netip.Addr]string)
	n = r.Length(2)
	for i := 0; i < n && r.Err() == nil; i++ {
		a := r.Addr()
		dom := r.String()
		if r.Err() == nil {
			reverse[a] = dom
		}
	}
	if r.Err() != nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.entries = entries
	d.reverse = reverse
}
