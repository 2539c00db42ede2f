package feedback

// A record's content hash is FNV-1a, 64-bit, over its time's eight bytes,
// little-endian, its rating byte, its server id, a zero byte and its client
// id. The store finds a duplicate by it and keeps each server's XOR of it,
// which gossip peers and evicted stubs compare, so its value never changes.
// It is computed from the columns a record sits in, rows never built.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// ContentHash returns the content hash of server's record with the given
// time in unix nanoseconds, rating and client.
func ContentHash(nanos int64, r Rating, server, client EntityID) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < 64; i += 8 {
		h = (h ^ uint64(byte(nanos>>i))) * fnvPrime
	}
	h = (h ^ uint64(byte(r))) * fnvPrime
	h = fnvString(h, string(server)) * fnvPrime // times the zero byte
	return fnvString(h, string(client))
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// Hash returns the content hash of record i.
func (b *Batch) Hash(i int) uint64 {
	return ContentHash(b.nanos[i], b.rating(i), b.servers.ids[b.server[i]], b.clients.ids[b.client[i]])
}
