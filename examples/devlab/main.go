// Devlab reproduces §3's development-lab anecdote for the copy-and-update
// (CAU) discipline: near a release deadline several developers edit the same
// file from private copies. The first to finish integrates cleanly; later
// check-ins must merge — and a careless (blind) check-in silently loses
// someone's work, "and it does occur".
//
// Run with: go run ./examples/devlab
package main

import (
	"bytes"
	"fmt"
	"log"

	"datalinks/internal/archive"
	"datalinks/internal/cau"
	"datalinks/internal/fs"
)

func main() {
	phys := fs.New()
	if err := phys.MkdirAll("/src", fs.Cred{UID: fs.Root}, 0o777); err != nil {
		log.Fatal(err)
	}
	base := []byte("func release() {\n\t// TODO alpha\n\t// TODO beta\n}\n")
	if err := phys.WriteFile("/src/release.go", base); err != nil {
		log.Fatal(err)
	}
	arch, err := archive.NewTiered(0, nil, archive.TierConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer arch.Close()
	mgr := cau.New(phys, arch, "lab", nil)

	// Two developers take private copies of the same file. No locks.
	alice, err := mgr.Copy("dlfs://lab/src/release.go")
	if err != nil {
		log.Fatal(err)
	}
	bob, err := mgr.Copy("dlfs://lab/src/release.go")
	if err != nil {
		log.Fatal(err)
	}
	alice.Content = bytes.Replace(alice.Content, []byte("// TODO alpha"), []byte("doAlpha()"), 1)
	bob.Content = bytes.Replace(bob.Content, []byte("// TODO beta"), []byte("doBeta()"), 1)

	// Alice integrates first — clean.
	if err := mgr.CheckInSafe(alice, nil); err != nil {
		log.Fatal(err)
	}
	fmt.Println("alice checked in cleanly")

	// Bob's safe check-in detects the conflict and merges three-way.
	merge := func(base, mine, theirs []byte) ([]byte, error) {
		// A toy three-way merge good enough for disjoint line edits: take
		// `theirs` and apply the line bob changed.
		merged := bytes.Replace(theirs, []byte("// TODO beta"), []byte("doBeta()"), 1)
		return merged, nil
	}
	if err := mgr.CheckInSafe(bob, merge); err != nil {
		log.Fatal(err)
	}
	fmt.Println("bob's check-in merged with alice's work")
	final, _ := phys.ReadFile("/src/release.go")
	fmt.Printf("\nmerged file:\n%s\n", final)

	// The hazard: the same scenario with blind check-ins loses an update.
	if err := phys.WriteFile("/src/hotfix.go", []byte("v0\n")); err != nil {
		log.Fatal(err)
	}
	carol, _ := mgr.Copy("dlfs://lab/src/hotfix.go")
	dave, _ := mgr.Copy("dlfs://lab/src/hotfix.go")
	carol.Content = []byte("v0 + carol's fix\n")
	dave.Content = []byte("v0 + dave's fix\n")
	mgr.CheckInBlind(carol)
	mgr.CheckInBlind(dave) // overwrites carol silently
	data, _ := phys.ReadFile("/src/hotfix.go")
	_, lost, merges, _ := mgr.Stats()
	fmt.Printf("blind check-ins on hotfix.go left: %q\n", data)
	fmt.Printf("lost updates: %d (carol's), successful merges: %d\n", lost, merges)
	fmt.Println("\n→ this is why the paper builds update-in-place with DBMS-enforced serialization instead")
}
