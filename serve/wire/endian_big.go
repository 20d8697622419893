//go:build armbe || arm64be || m68k || mips || mips64 || mips64p32 || ppc || ppc64 || s390 || s390x || shbe || sparc || sparc64

package wire

// byteViews: on a big-endian host each component's bytes are reversed
// against the wire's, so the codec takes its copying path.
const byteViews = false
