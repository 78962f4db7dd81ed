// Videostore reproduces the paper's motivating scenario (§1): a video
// merchant keeps movie attributes in the RDBMS for search and analysis, and
// the preview clips as files on a file server. DataLinks keeps them
// consistent: deleting a movie releases its clip atomically, updating a clip
// is transactional, and the clip can never be removed or renamed while the
// catalog references it.
//
// Run with: go run ./examples/videostore
package main

import (
	"fmt"
	"log"

	"datalinks"
)

const clerk = 200 // uid of the catalog application

func main() {
	sys, err := datalinks.Open(datalinks.Config{
		Servers: []datalinks.ServerConfig{{Name: "media1"}},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	fsrv, _ := sys.FileServer("media1")
	clips := map[string]string{
		"/clips/casablanca.mpg": "casablanca preview v1",
		"/clips/metropolis.mpg": "metropolis preview v1",
		"/clips/vertigo.mpg":    "vertigo preview v1",
	}
	for path, content := range clips {
		if err := fsrv.SeedFile(path, []byte(content), clerk); err != nil {
			log.Fatal(err)
		}
	}

	// The catalog: attributes in columns, the clip as a DATALINK. rfd mode:
	// anyone can stream (read) the clip with no database involvement — the
	// web-server fast path — while updates are database-managed.
	sys.MustExec(`CREATE TABLE movies (
		id INT PRIMARY KEY,
		title VARCHAR NOT NULL,
		category VARCHAR,
		price DOUBLE,
		inventory INT,
		clip DATALINK MODE RFD RECOVERY YES,
		clip_size INT,
		clip_mtime TIMESTAMP
	)`)
	sys.MustExec(`INSERT INTO movies (id, title, category, price, inventory, clip) VALUES
		(1, 'Casablanca', 'classic', 9.99, 12, DLVALUE('dlfs://media1/clips/casablanca.mpg')),
		(2, 'Metropolis', 'silent', 14.50, 3, DLVALUE('dlfs://media1/clips/metropolis.mpg')),
		(3, 'Vertigo', 'thriller', 12.00, 7, DLVALUE('dlfs://media1/clips/vertigo.mpg'))`)

	// Search works like any SQL query.
	rows, err := sys.Query(`SELECT title, price FROM movies WHERE price < 13 ORDER BY price`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("movies under $13:")
	for _, r := range rows.Data {
		fmt.Printf("  %-12v $%v\n", r[0], r[1])
	}

	// Streaming a preview is plain file access — no token, no upcalls.
	sess := sys.Session(clerk)
	before := fsrv.UpcallCount()
	clip, err := sess.OpenRead("dlfs://media1/clips/casablanca.mpg")
	if err != nil {
		log.Fatal(err)
	}
	data, _ := clip.ReadAll()
	clip.Close()
	fmt.Printf("\nstreamed %d bytes with %d upcalls (the rfd read fast path)\n",
		len(data), fsrv.UpcallCount()-before)

	// Re-cutting a clip is an in-place update transaction.
	writeURL, err := sys.QueryString(`SELECT DLURLCOMPLETEWRITE(clip) FROM movies WHERE title = 'Vertigo'`)
	if err != nil {
		log.Fatal(err)
	}
	w, err := sess.OpenWrite(writeURL)
	if err != nil {
		log.Fatal(err)
	}
	w.WriteAll([]byte("vertigo preview v2 — recut"))
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nrecut vertigo clip; archived versions:", fsrv.Versions("/clips/vertigo.mpg"))

	// While the catalog references a clip, the file system refuses to
	// delete it — no dangling catalog entries, ever.
	if _, err := sys.Exec(`DELETE FROM movies WHERE title = 'Metropolis'`); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndropped Metropolis from the catalog; its clip is unmanaged again:")
	fmt.Println("  still linked:", fsrv.LinkedFiles())

	// Atomicity across catalog and file server: a rolled-back delete keeps
	// both sides intact. (Session-level SQL transactions drive this through
	// the engine's 2PC with the file manager.)
	rows, _ = sys.Query(`SELECT COUNT(*) FROM movies`)
	fmt.Printf("\ncatalog now has %v movies, %d clips remain linked\n",
		rows.Data[0][0], len(fsrv.LinkedFiles()))
}
