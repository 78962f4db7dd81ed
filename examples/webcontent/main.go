// Webcontent demonstrates the paper's web content-management use case (§1,
// §3.2): static pages served straight from the file system while the
// database manages integrity and update, including the consistency
// difference between rfd (fast reads, weak read-write isolation) and rdd
// (token-gated reads, full serialization) under a live editor.
//
// Run with: go run ./examples/webcontent
package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"datalinks"
)

const (
	webserver = 300 // uid serving pages
	editor    = 301 // uid editing pages
)

func main() {
	sys, err := datalinks.Open(datalinks.Config{
		Servers: []datalinks.ServerConfig{{Name: "www"}},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	fsrv, _ := sys.FileServer("www")
	page := func(v int) []byte {
		return []byte(fmt.Sprintf("<html><body>press release, revision %d</body></html>", v))
	}
	if err := fsrv.SeedFile("/site/press.html", page(0), editor); err != nil {
		log.Fatal(err)
	}
	if err := fsrv.SeedFile("/site/about.html", []byte("<html>about us</html>"), editor); err != nil {
		log.Fatal(err)
	}

	// press.html is hot and edited: rfd gives the web server zero-overhead
	// reads. about.html holds sensitive drafts: rdd gates reads with tokens.
	sys.MustExec(`CREATE TABLE site (
		path VARCHAR PRIMARY KEY,
		owner VARCHAR,
		doc DATALINK MODE RFD RECOVERY YES,
		doc_size INT
	)`)
	sys.MustExec(`CREATE TABLE drafts (
		path VARCHAR PRIMARY KEY,
		doc DATALINK MODE RDD RECOVERY YES
	)`)
	sys.MustExec(`INSERT INTO site VALUES ('/site/press.html', 'pr-team', DLVALUE('dlfs://www/site/press.html'), NULL)`)
	sys.MustExec(`INSERT INTO drafts VALUES ('/site/about.html', DLVALUE('dlfs://www/site/about.html'))`)

	// The web server hammers the page while the editor publishes revisions.
	var served, rejected int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv := sys.Session(webserver)
		for {
			select {
			case <-stop:
				return
			default:
			}
			f, err := srv.OpenRead("dlfs://www/site/press.html")
			if err != nil {
				atomic.AddInt64(&rejected, 1)
				continue
			}
			f.ReadAll()
			f.Close()
			atomic.AddInt64(&served, 1)
		}
	}()

	ed := sys.Session(editor)
	for rev := 1; rev <= 5; rev++ {
		url, err := sys.QueryString(`SELECT DLURLCOMPLETEWRITE(doc) FROM site WHERE path = '/site/press.html'`)
		if err != nil {
			log.Fatal(err)
		}
		for {
			w, err := ed.OpenWrite(url)
			if err != nil {
				continue // page busy; retry
			}
			w.WriteAll(page(rev))
			if err := w.Close(); err == nil {
				break
			}
		}
		// Give the web-server goroutine a window to serve before the next
		// revision (on a single-CPU box the editor would otherwise publish
		// all revisions before the reader is ever scheduled).
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	fmt.Printf("served %d page loads while publishing 5 revisions (%d opens rejected during update windows)\n",
		atomic.LoadInt64(&served), atomic.LoadInt64(&rejected))
	fmt.Println("press.html versions in the archive:", fsrv.Versions("/site/press.html"))

	// The sensitive draft cannot be read without a token...
	anon := sys.Session(999)
	if _, err := anon.OpenRead("dlfs://www/site/about.html"); err != nil {
		fmt.Println("tokenless read of the rdd draft: denied ✔")
	}
	// ...but a token from the database opens it.
	url, _ := sys.QueryString(`SELECT DLURLCOMPLETE(doc) FROM drafts WHERE path = '/site/about.html'`)
	f, err := sys.Session(editor).OpenRead(url)
	if err != nil {
		log.Fatal(err)
	}
	draft, _ := f.ReadAll()
	f.Close()
	fmt.Printf("token-gated draft read: %q\n", draft)

	// Point-in-time restore: roll the whole site (database + files) back.
	state := sys.StateID()
	url, _ = sys.QueryString(`SELECT DLURLCOMPLETEWRITE(doc) FROM site WHERE path = '/site/press.html'`)
	w, _ := ed.OpenWrite(url)
	w.WriteAll([]byte("<html>accidentally published draft!!</html>"))
	w.Close()
	if err := sys.RestoreToState(state); err != nil {
		log.Fatal(err)
	}
	data, _ := fsrv.ReadFile("/site/press.html")
	fmt.Printf("after point-in-time restore: %s\n", data)
}
