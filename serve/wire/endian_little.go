//go:build !(armbe || arm64be || m68k || mips || mips64 || mips64p32 || ppc || ppc64 || s390 || s390x || shbe || sparc || sparc64)

package wire

// byteViews: on a little-endian host a slab's memory is its wire
// encoding, so the codec reads and writes slabs through byte views.
const byteViews = true
