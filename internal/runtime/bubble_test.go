//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package runtime

import (
	"testing"
	"testing/synctest"
)

// bubbled is whether the timing tests run inside a testing/synctest bubble,
// where time moves only when every goroutine in the bubble is blocked: a
// timer, a sleep, an AckTimeout or a link's latency costs no wall time, and
// a deadline cannot pass while a firing is runnable. The tests it guards
// assert there the exact fates that real time can only bound.
const bubbled = true

// bubble runs f as the subtest "bubble" of t inside a synctest bubble, so the
// subtest's cleanups (mustSystem's Close among them) run in the bubble too,
// and the bubble ends only when every goroutine the test started has.
func bubble(t *testing.T, f func(*testing.T)) {
	synctest.Run(func() { t.Run("bubble", f) })
}
