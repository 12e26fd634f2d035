package protocol

// Ledger fingerprints: a commutative 64-bit digest of one machine's grant
// ledger (app -> unit -> container count) that the master's scheduler and
// the machine's FuxiAgent each maintain incrementally. A machine's
// fingerprint is the wrapping sum of LedgerEntryFP over its entries, so a
// count change is applied in O(1) as fp += LedgerEntryFP(new) -
// LedgerEntryFP(old), independent of entry order and of how the ledger was
// reached. Unequal fingerprints prove the two ledgers differ; equal ones mean
// equal ledgers up to a ~2^-64 collision, so callers that must be exact
// confirm a match with a full comparison.

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// NameHash is the 64-bit hash of an application name that ledger entry
// fingerprints are keyed by (FNV-1a, finalized by mix64). Alloc-free.
func NameHash(app string) uint64 {
	h := fnvOffset64
	for i := 0; i < len(app); i++ {
		h = (h ^ uint64(app[i])) * fnvPrime64
	}
	return mix64(h)
}

// LedgerEntryFP is one (app, unit, count) ledger entry's contribution to its
// machine's fingerprint; appHash is NameHash(app). A count <= 0 is an absent
// entry and contributes 0.
func LedgerEntryFP(appHash uint64, unit, count int) uint64 {
	if count <= 0 {
		return 0
	}
	h := mix64(appHash ^ uint64(uint32(unit))*0x9e3779b97f4a7c15)
	return mix64(h + uint64(count)*0xc2b2ae3d27d4eb4f)
}

// mix64 is the splitmix64 finalizer: a bijective avalanche over 64 bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
