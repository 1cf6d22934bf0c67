//go:build !goexperiment.synctest

package runtime

import "testing"

const bubbled = false

func bubble(t *testing.T, f func(*testing.T)) { f(t) }
