package app;

public class Main {
    private int runs;

    public static void main(String[] args) {
        new Main().run();
    }

    void run() {
        runs++;
    }
}
