//go:build simdebug

package transport

// demuxDebug enables the endpoint demux checks. Build with `-tags simdebug`
// (done by `make check`) to turn them into panics; in release builds the
// guarded branches compile away.
const demuxDebug = true
