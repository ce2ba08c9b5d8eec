public class Banner {
    private String art = """
        aspect Fake {
            pointcut p(): call(* *(..));
        }
        """;
    public String render() { return art; }
    int width;
}
