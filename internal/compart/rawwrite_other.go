//go:build !unix

package compart

import (
	"errors"
	"net"
)

// rawWriter has no direct write off unix: the pump writes every frame.
type rawWriter struct{}

func (*rawWriter) attach(net.Conn) {}

func (*rawWriter) detach() {}

func (*rawWriter) attached() bool { return false }

func (*rawWriter) write([]byte) (int, error) { return 0, errors.ErrUnsupported }
