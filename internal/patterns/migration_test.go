package patterns

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"csaw/internal/obsv"
	"csaw/internal/runtime"
)

// The migration equivalence suite: every deterministic catalogue entry is
// deployed across its two reference locations (CostPlacement), every
// instance is live-migrated to the other location while the workload keeps
// driving, and the quiescent KV state must be identical to a never-migrated
// control run — zero lost updates, no divergence.

// migratableEntries are the catalogue entries with schedule-independent
// drives (the same set the transport-determinism equivalence check uses);
// the failover entries depend on crash timing and are exercised by the
// runtime-level migration tests instead.
var migratableEntries = []string{"snapshot", "sharding", "parallel-sharding", "caching"}

// driveOnce performs one workload drive for an entry, non-fatally — it runs
// on goroutines racing a migration, so failures are returned, not asserted.
func driveOnce(ctx context.Context, name string, sys *runtime.System) error {
	switch name {
	case "snapshot":
		return sys.Invoke(ctx, ActInstance, SnapshotJunction)
	case "sharding", "parallel-sharding":
		return sys.Invoke(ctx, FrontInstance, ShardJunction)
	case "caching":
		return sys.Invoke(ctx, CacheInstance, CacheJunction)
	default:
		return fmt.Errorf("no drive defined for %q", name)
	}
}

// deployEntry builds a fresh two-location in-process deployment shaped by
// the entry's reference placement. Pins are deliberately not applied: the
// point is to move the instances.
func deployEntry(entry CatalogueEntry) (*runtime.Deployment, []string) {
	locSet := map[string]bool{}
	for _, loc := range entry.CostPlacement {
		locSet[loc] = true
	}
	locs := make([]string, 0, len(locSet))
	for loc := range locSet {
		locs = append(locs, loc)
	}
	sort.Strings(locs)
	dep := runtime.NewDeployment()
	for _, loc := range locs {
		dep.AddLocation(loc, nil)
	}
	insts := make([]string, 0, len(entry.CostPlacement))
	for inst, loc := range entry.CostPlacement {
		dep.Place(inst, loc)
		insts = append(insts, inst)
	}
	sort.Strings(insts)
	return dep, insts
}

// TestMigrationEquivalence runs each deterministic entry twice on identical
// two-location deployments — once migrating every instance to the opposite
// location mid-workload, once untouched — and compares quiescent state.
func TestMigrationEquivalence(t *testing.T) {
	const drivesPerPhase = 2
	for _, name := range migratableEntries {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			entry, ok := CatalogueEntryByName(name)
			if !ok {
				t.Fatalf("catalogue entry %q missing", name)
			}

			run := func(migrate bool) string {
				dep, insts := deployEntry(entry)
				ring := obsv.NewRingSink(1 << 16)
				prog := entry.Build()
				sys := startSystem(t, prog, runtime.Options{
					Deploy:     dep,
					AckTimeout: 10 * time.Second,
					Trace:      ring,
				})
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				if err := sys.RunMain(ctx); err != nil {
					t.Fatal(err)
				}
				for _, inst := range insts {
					var wg sync.WaitGroup
					driveErr := make(chan error, 1)
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < drivesPerPhase; i++ {
							if err := driveOnce(ctx, name, sys); err != nil {
								driveErr <- fmt.Errorf("drive %d during %s phase: %w", i, inst, err)
								return
							}
						}
					}()
					if migrate {
						cur := dep.LocationOf(inst)
						var dest string
						for _, loc := range dep.Locations() {
							if loc != cur {
								dest = loc
								break
							}
						}
						if err := sys.MigrateInstance(inst, dest); err != nil {
							t.Fatalf("migrate %s %s→%s: %v", inst, cur, dest, err)
						}
					}
					wg.Wait()
					select {
					case err := <-driveErr:
						t.Fatal(err)
					default:
					}
				}
				state := quiesce(t, sys)
				// A migration moves tables between schedulings, never inside one:
				// each scheduling is still a run of its junction's denotation.
				conforms(t, sys.Plan(), ring)
				for _, loc := range dep.Locations() {
					if st := dep.Net(loc).Stats(); !st.Conserved() {
						t.Fatalf("location %s transport counters not conserved: %+v", loc, st)
					}
				}
				return state
			}

			control := run(false)
			migrated := run(true)
			if control != migrated {
				t.Errorf("quiescent KV state diverges after live migration:\n--- control ---\n%s--- migrated ---\n%s", control, migrated)
			}
		})
	}
}
