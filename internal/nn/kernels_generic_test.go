//go:build !amd64

package nn

// dispatchPaths is empty off amd64: matvecWT is the portable loop, which
// the kernel tests run as their own path.
func dispatchPaths() []matvecPath { return nil }

// gradDispatchPaths is empty off amd64: gradWT is the portable loop.
func gradDispatchPaths() []gradPath { return nil }
