package patterns

import (
	"csaw/internal/dsl"
	"csaw/internal/workload"
)

// KeyHashChooser implements the paper's key-based sharding (§5.2, §10.1):
// djb2(key) mod N. keyOf extracts the current request's key from the
// application context.
func KeyHashChooser(n int, keyOf func(ctx dsl.HostCtx) (string, error)) func(ctx dsl.HostCtx) (int, error) {
	return func(ctx dsl.HostCtx) (int, error) {
		key, err := keyOf(ctx)
		if err != nil {
			return 0, err
		}
		return int(workload.Djb2(key)) % n, nil
	}
}

// SizeClassChooser implements the paper's feature-based sharding by object
// size (§5.2): a look-up on a custom table mapping keys to object sizes,
// quantized into the disjoint ranges 0–4 KB, 4–64 KB and >64 KB. Keys whose
// size is unknown (e.g. first write) are classified by the size of the value
// being written; reads of unknown keys fall back to the hash chooser so the
// shard count N may exceed the class count.
func SizeClassChooser(
	n int,
	classes []workload.SizeClass,
	sizeOf func(ctx dsl.HostCtx) (key string, size int, known bool, err error),
) func(ctx dsl.HostCtx) (int, error) {
	if len(classes) == 0 {
		classes = workload.PaperSizeClasses()
	}
	return func(ctx dsl.HostCtx) (int, error) {
		key, size, known, err := sizeOf(ctx)
		if err != nil {
			return 0, err
		}
		if !known {
			return int(workload.Djb2(key)) % n, nil
		}
		for i, c := range classes {
			if size <= c.MaxBytes {
				return i % n, nil
			}
		}
		return (len(classes) - 1) % n, nil
	}
}
