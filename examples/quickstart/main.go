// Quickstart: store, read, and crypto-shred archive files through the
// storage service. Data flows through the real pipeline: AES
// envelope encryption, LDPC sector coding, 16-symbol voxel modulation,
// a noisy polarization-microscopy channel model, soft demapping, and
// three levels of network-coding redundancy — then verification before
// the staged copy is released, exactly as §3.1 prescribes.
package main

import (
	"bytes"
	"fmt"
	"log"

	"silica/internal/service"
)

func main() {
	svc, err := service.New(service.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// 1. Put: encrypt + stage.
	manuscript := bytes.Repeat([]byte("In the beginning was the word. "), 200)
	if _, err := svc.Put("museum", "manuscript.txt", manuscript); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("staged manuscript.txt (%d bytes)\n", len(manuscript))

	// 2. Flush: batch -> platter layout -> encode -> write -> verify.
	if err := svc.Flush(); err != nil {
		log.Fatal(err)
	}
	st := svc.Stats()
	fmt.Printf("flushed to glass: %d platter(s), %d sectors written, verify margin %.2f\n",
		st.PlattersWritten, st.SectorsWritten, st.MinVerifyMargin)

	// 3. Get: decode through the noisy read channel.
	got, err := svc.Get("museum", "manuscript.txt")
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, manuscript) {
		log.Fatal("read-back mismatch")
	}
	fmt.Printf("read back %d bytes, byte-for-byte identical\n", len(got))

	// 4. Overwrite: WORM media versions logically (§3).
	revised := append(bytes.Clone(manuscript), []byte("-- 2nd edition")...)
	if _, err := svc.Put("museum", "manuscript.txt", revised); err != nil {
		log.Fatal(err)
	}
	if err := svc.Flush(); err != nil {
		log.Fatal(err)
	}
	got, _ = svc.Get("museum", "manuscript.txt")
	fmt.Printf("after overwrite the latest version wins (%d bytes)\n", len(got))

	// 5. Delete: crypto-shredding. The voxels remain in the glass
	// forever; the key does not.
	if err := svc.Delete("museum", "manuscript.txt"); err != nil {
		log.Fatal(err)
	}
	if _, err := svc.Get("museum", "manuscript.txt"); err == nil {
		log.Fatal("deleted file still readable")
	}
	fmt.Println("deleted: pointers removed, key shredded, ciphertext unreadable")
}
