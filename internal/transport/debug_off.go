//go:build !simdebug

package transport

// demuxDebug is off in release builds; see debug_on.go.
const demuxDebug = false
