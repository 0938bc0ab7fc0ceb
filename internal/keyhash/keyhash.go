// Package keyhash is the one place DNS cache keys are hashed. Two layers
// partition work by hashing the same (qname, qtype) key — the resolver
// cache spreads entries over lock shards and the cluster ring assigns
// ownership of names to peers — and they must agree on the key bytes, or
// a name canonicalised in one layer lands in a different partition than
// the same name hashed raw in the other.
//
// Every function hashes the *canonical* form of the name (ASCII
// lowercased, exactly one trailing root dot, matching
// dnswire.CanonicalName) without allocating: "WWW.Example.COM",
// "www.example.com" and "www.example.com." all hash identically.
package keyhash

// FNV-1a constants (FNV-0 offset basis and 64-bit prime).
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// Name returns the 64-bit FNV-1a hash of the canonical form of a DNS
// name. The canonicalisation is performed byte-by-byte during hashing,
// so no intermediate string is built.
func Name(name string) uint64 {
	h := uint64(offset64)
	n := len(name)
	if n > 0 && name[n-1] == '.' {
		n-- // hash without the trailing dot, re-added uniformly below
	}
	for i := 0; i < n; i++ {
		c := name[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		h ^= uint64(c)
		h *= prime64
	}
	h ^= uint64('.')
	h *= prime64
	return h
}

// Key extends Name with the query type (little-endian byte order, for
// continuity with the resolver cache's historical shard hash), yielding
// the full (qname, qtype) cache-key hash.
func Key(name string, typ uint16) uint64 {
	h := Name(name)
	h ^= uint64(typ & 0xff)
	h *= prime64
	h ^= uint64(typ >> 8)
	h *= prime64
	return h
}

// String is plain FNV-1a over raw bytes, no canonicalisation — for
// non-name inputs such as consistent-hash virtual-node labels.
func String(s string) uint64 {
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
